package main

// `irm daemon`: the persistent compile service, and the client-mode
// dispatch `irm build` uses to reach it. The daemon opens the store
// once, holds its lock (with the heartbeat) for the whole lifetime,
// keeps the process-wide EnvCache warm, and serves PROTOCOL.md's
// irm-daemon/1 endpoints on a unix socket beside the store — plus,
// with -addr, the same mux on TCP for scrapers. SIGTERM (or POST
// /v1/drain) drains gracefully: admitted requests finish, the socket
// is removed, the lock released.

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/obs"
)

func cmdDaemon(args []string) {
	fs := flag.NewFlagSet("daemon", flag.ExitOnError)
	f := cli.New()
	f.Register(fs, "store", "policy", "j", "v", "history", "profile-period")
	fs.Lookup("j").Usage = "default parallel build workers (0 = one per core)"
	fs.Lookup("policy").Usage = "default recompilation policy: cutoff or timestamp"
	fs.Lookup("v").Usage = "log one line per request and build"
	fs.Lookup("profile-period").Usage = "sampling period in interpreter steps (implies -profile; 0 = default)"
	socketFlag := fs.String("socket", "", "unix socket path (default: .irm/daemon.sock beside the store)")
	addr := fs.String("addr", "", "also serve the mux on this TCP address (for /metrics scrapers)")
	queue := fs.Int("queue", daemon.DefaultMaxQueue, "admission queue bound (further requests get 503 queue_full)")
	profFlag := fs.Bool("profile", false, "profile every build; serve the latest on /debug/sml/profile")
	fs.Parse(args)

	// Hold the store lock for the daemon's whole lifetime; the
	// heartbeat keeps the lockfile fresh through idle stretches, so a
	// quiet daemon is never stale-stolen by a CLI build.
	s := f.Open(true, nil)
	defer s.Close()

	socket := daemon.ResolveSocket(*socketFlag, f.Store)
	if err := os.MkdirAll(filepath.Dir(socket), 0o755); err != nil {
		cli.Fatal(err)
	}
	// A leftover socket file from a crashed daemon would make Listen
	// fail. A *live* daemon also holds the store lock, so reaching this
	// point means no live daemon owns the store — any existing socket
	// file is stale and safe to remove.
	if _, err := os.Stat(socket); err == nil {
		os.Remove(socket)
	}
	ln, err := net.Listen("unix", socket)
	if err != nil {
		cli.Fatal(err)
	}

	opts := daemon.Options{
		Store:    s.DirStore,
		StoreDir: f.Store,
		Col:      s.Col,
		Ledger:   s.Ledger,
		Policy:   s.M.Policy,
		Jobs:     f.Jobs,
		MaxQueue: *queue,
		Log:      s.M.Log,
	}
	if *profFlag || f.ProfilePeriod > 0 {
		opts.ProfilePeriod = cli.ProfilePeriod(f.ProfilePeriod)
	}
	srv := daemon.New(opts)
	srv.Start()
	fmt.Fprintf(os.Stderr, "irm: daemon listening on %s\n", socket)
	go http.Serve(ln, srv.Handler())
	if *addr != "" {
		cli.Listen(*addr, srv.Handler())
	}

	// Run until SIGTERM/SIGINT or a client-initiated POST /v1/drain,
	// then drain: admission stops, admitted requests finish, and the
	// store is left byte-identical to the same builds run sequentially.
	// Both paths end in the same teardown — listener closed, socket
	// removed, store lock released (deferred), exit 0 — per PROTOCOL.md
	// §8. Drain is idempotent, so a signal after a drain request is
	// fine.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "irm: daemon draining")
		srv.Drain()
	case <-srv.Done():
		// /v1/drain already ran the drain to completion; only the
		// teardown is left.
		fmt.Fprintln(os.Stderr, "irm: daemon draining")
	}
	ln.Close()
	os.Remove(socket)
	st := srv.Status()
	fmt.Fprintf(os.Stderr, "irm: daemon drained (%d requests, %d builds, %d coalesced)\n",
		st.Requests, st.Builds, st.Coalesced)
}

// dialDaemon resolves the daemon socket for a store and probes it.
// Returns nil when no live, protocol-compatible daemon answers —
// callers fall back to the in-process build path.
func dialDaemon(socketFlag, storeDir string) *daemon.Client {
	socket := daemon.ResolveSocket(socketFlag, storeDir)
	c := daemon.NewClient(socket)
	if _, err := c.Probe(); err != nil {
		return nil
	}
	return c
}

// buildViaDaemon dispatches one build to the daemon and renders the
// streamed frames exactly like an in-process build would: program
// output to stdout as it happens, explain records to stderr, and the
// text or JSON summary from the terminal report frame.
func buildViaDaemon(c *daemon.Client, groupPath string, f *cli.Flags) error {
	abs, err := filepath.Abs(groupPath)
	if err != nil {
		return err
	}
	hostname, _ := os.Hostname()
	var rep *obs.Report
	err = c.Build(daemon.BuildRequest{
		Group:   abs,
		Policy:  f.Policy,
		Jobs:    f.Jobs,
		Explain: f.Explain,
		Client:  fmt.Sprintf("irm-build/%s/%d", hostname, os.Getpid()),
	}, func(fr daemon.Frame) error {
		switch fr.Type {
		case daemon.FrameOutput:
			os.Stdout.WriteString(fr.Data)
		case daemon.FrameExplain:
			if f.Explain && fr.Explain != nil {
				if err := obs.WriteExplainJSONL(os.Stderr, []obs.Explain{*fr.Explain}); err != nil {
					return err
				}
			}
		case daemon.FrameReport:
			rep = fr.Report
		}
		return nil
	})
	if err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("daemon stream carried no report")
	}
	if f.Report == "json" {
		cli.WriteJSON(os.Stdout, rep)
		return nil
	}
	printReportSummary(rep)
	return nil
}

// printReportSummary renders the classic two-line build summary from a
// report object, local or streamed by the daemon: the same build prints
// the same bytes either way.
func printReportSummary(rep *obs.Report) {
	fmt.Printf("%s: %d units — parsed %d, compiled %d, loaded %d, cutoffs %d, corrupt %d, recovered %d\n",
		rep.Name, rep.Units, rep.Parsed, rep.Compiled, rep.Loaded, rep.Cutoffs,
		rep.Corrupt, rep.Recovered)
	fmt.Printf("  compile %v, hash %v, pickle %v, load %v, exec %v\n",
		time.Duration(rep.TimingsNs["compile"]), time.Duration(rep.TimingsNs["hash"]),
		time.Duration(rep.TimingsNs["pickle"]), time.Duration(rep.TimingsNs["load"]),
		time.Duration(rep.TimingsNs["exec"]))
}
