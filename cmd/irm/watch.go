package main

// `irm watch`: the continuous rebuild loop. The command acquires the
// store lock once for the whole session (the lock heartbeat keeps it
// fresh through quiet periods), then hands the Manager an Unlocked view
// of the store so per-build re-acquisition cannot deadlock against the
// session's own hold.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/watch"
	"repro/internal/workload"
)

func cmdWatch(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	storeDir := fs.String("store", ".irm-store", "bin cache directory")
	policy := fs.String("policy", "cutoff", "recompilation policy: cutoff or timestamp")
	jobs := fs.Int("j", 0, "parallel build workers (0 = one per core)")
	verbose := fs.Bool("v", false, "log one line per iteration")
	poll := fs.Duration("poll", 200*time.Millisecond, "idle polling period")
	debounce := fs.Duration("debounce", 50*time.Millisecond, "quiet time required after a change before rebuilding")
	serveAddr := fs.String("serve", "", "serve /metrics, /watch (SSE), and /debug/pprof on this address")
	historyFlag := fs.String("history", "", "ledger directory ('' = beside the store, 'off' = disabled)")
	maxBuilds := fs.Int("n", 0, "exit after n rebuilds (0 = run until interrupted)")
	drive := fs.Int("drive", 0, "scripted session: apply n generated edits, one per rebuild, then exit")
	driveSeed := fs.Int64("drive-seed", 1, "seed of the scripted edit stream")
	report := fs.String("report", "", "session summary on exit: text or json")
	groupPath, rest := splitGroupArg(args)
	fs.Parse(rest)
	if groupPath == "" && fs.NArg() == 1 {
		groupPath = fs.Arg(0)
	}
	if groupPath == "" {
		usage()
	}
	if *report != "" && *report != "text" && *report != "json" {
		usage()
	}
	store, err := core.NewDirStore(*storeDir)
	if err != nil {
		fatal(err)
	}
	col := obs.New()
	store.Obs = col
	// Hold the store lock for the whole session: one watcher owns the
	// store, and the heartbeat (core/lock.go) keeps the lockfile fresh
	// however long the session idles. The Manager gets an Unlocked view
	// so its per-build Lock call does not deadlock against our hold.
	release, err := store.Lock()
	if err != nil {
		fatal(err)
	}
	defer release()

	m := &core.Manager{Store: core.Unlocked(store), Stdout: os.Stdout, Obs: col, Jobs: *jobs}
	switch *policy {
	case "cutoff":
		m.Policy = core.PolicyCutoff
	case "timestamp":
		m.Policy = core.PolicyTimestamp
	default:
		usage()
	}

	ledger := openLedger(*historyFlag, *storeDir)
	hub := watch.NewHub()
	if *serveAddr != "" {
		srv := obsserve.New(col, ledger)
		srv.Watch = hub
		if _, err := startServer(*serveAddr, srv); err != nil {
			fatal(err)
		}
	}

	n := *maxBuilds
	if *drive > 0 {
		n = *drive
	}
	opts := watch.Options{
		Manager:   m,
		GroupPath: groupPath,
		Col:       col,
		Ledger:    ledger,
		Hub:       hub,
		Poll:      *poll,
		Debounce:  *debounce,
		MaxBuilds: n,
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	w, err := watch.New(opts)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *drive > 0 {
		go driveEdits(ctx, hub, groupPath, *drive, *driveSeed)
	}

	if err := w.Run(ctx); err != nil {
		fatal(err)
	}
	switch *report {
	case "json":
		writeJSONLine(os.Stdout, w.Report())
	case "text":
		printWatchReport(w.Report())
	}
}

// driveEdits is the scripted "developer": it waits for each iteration's
// event before applying the next edit, so every edit maps onto exactly
// one rebuild and the session's latency histogram gets one sample per
// edit. The driver assumes a workload-generated project (irm gen) in
// the group file's directory.
func driveEdits(ctx context.Context, hub *watch.Hub, groupPath string, n int, seed int64) {
	events, cancel := hub.Subscribe()
	defer cancel()

	// Count the units so the driver picks real files.
	g, err := core.LoadGroup(groupPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "irm: drive:", err)
		return
	}
	d := workload.NewEditDriver(filepath.Dir(groupPath), len(g.Files), seed)

	// The initial build's event (seq 0) starts the clock.
	for done := 0; done <= n; {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Seq != done {
				continue // stale or duplicate; wait for ours
			}
			done++
			if done > n {
				return // the watcher exits on its own via MaxBuilds
			}
			if _, err := d.Next(); err != nil {
				fmt.Fprintln(os.Stderr, "irm: drive:", err)
				return
			}
		}
	}
}

func printWatchReport(r watch.Report) {
	fmt.Printf("%s: %d iterations (%d rebuilds), %d files polled, %d changed, %d debounced, %d poll errors, %d build errors\n",
		r.Group, r.Iterations, r.Rebuilds, r.FilesPolled, r.ChangedFiles,
		r.Debounced, r.PollErrors, r.BuildErrors)
	fmt.Printf("  edit→rebuild latency: p50 %v  p90 %v  p99 %v  mean %v (%d samples)\n",
		time.Duration(r.Latency.P50Ns).Round(time.Microsecond),
		time.Duration(r.Latency.P90Ns).Round(time.Microsecond),
		time.Duration(r.Latency.P99Ns).Round(time.Microsecond),
		time.Duration(r.Latency.MeanNs).Round(time.Microsecond),
		r.Latency.Count)
}
