// Command irm is the Incremental Recompilation Manager CLI (§6, §9 of
// the paper): it builds library groups described by ".cm"-style files,
// reusing cached bin files whenever the cutoff rule allows, and can
// display dependency graphs and the §5 hash-collision analysis.
//
//	irm build group.cm [-j n] [-store dir] [-policy cutoff|timestamp] [-v]
//	          [-trace out.json] [-jsonl out.jsonl] [-explain] [-report text|json]
//	          [-serve addr] [-history dir|off] [-daemon auto|off|require|socket]
//	          [-profile base] [-profile-period n]
//	irm profile group.cm [-j n] [-store dir] [-policy p] [-history dir|off]
//	          [-n k] [-period n] [-o base]
//	irm daemon [-store dir] [-socket path] [-addr host:port] [-j n] [-policy p]
//	          [-queue n] [-history dir|off] [-profile] [-profile-period n] [-v]
//	irm watch group.cm [-j n] [-store dir] [-policy p] [-poll d] [-debounce d]
//	          [-serve addr] [-history dir|off] [-n k] [-drive k] [-drive-seed n]
//	          [-report text|json] [-v]
//	irm serve [group.cm] [-addr host:port] [-store dir] [-policy p] [-j n] [-history dir|off]
//	irm history [-store dir | -dir ledgerdir] [-n k] [-window w] [-threshold t] [-since d]
//	irm top [-store dir | -dir ledgerdir] [-by cost|exec|fn] [-n k] [-since d]
//	irm gen [-dir d] [-units n] [-lines n] [-seed n] [-shape s]
//	irm deps  group.cm
//	irm show  file.sml ...
//	irm collision [-pids n]
//
// -j sets the parallel scheduler's worker count (0, the default, means
// one worker per core). Whatever -j, a build's outputs — bin files,
// stats, explain records — are deterministic; see DESIGN.md §4e.
//
// Profiling: -profile base turns on the deterministic SML-level
// execution profiler (DESIGN.md §4k): one stack sample every
// -profile-period interpreter steps (default 256), attributed to SML
// function identities, written as base.json (the irm-profile/1
// report), base.folded (flamegraph folded-stack text), and base.pb
// (pprof profile.proto — `go tool pprof base.pb`). `irm profile` is
// the one-shot variant that prints the hot-function table to stdout.
// Sampling is step-based, not wall-clock, so the same sources yield
// byte-identical reports at any -j; profiling never changes build
// outputs.
//
// Telemetry: -trace writes the build's span tree as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto), -jsonl
// the same plus explain records and counters as JSON lines, -explain
// streams one rebuild-decision record per unit to stderr, and
// -report json replaces the human summary with a machine-readable
// report object on the last line of stdout.
//
// Continuous observability: every build appends one summary record to
// the crash-safe history ledger beside the store (disable with
// -history off); `irm history` renders the ledger as a trend table
// and flags wall-time regressions against the trailing median, `irm
// top` ranks units by accumulated cost (both take -since to restrict
// to recent records), and `irm serve` (or `irm build -serve addr`)
// exposes /metrics in Prometheus text format, /debug/pprof, /healthz,
// and /builds over HTTP while the process runs.
//
// `irm daemon` is the persistent multi-client compile service
// (PROTOCOL.md): it opens the store once, holds the lock for its whole
// lifetime, keeps the rehydration cache warm, and serves irm-daemon/1
// requests on a unix socket beside the store. While a daemon runs,
// `irm build` against the same store dispatches to it transparently
// (requests for identical work coalesce into one build); without one,
// builds run in-process exactly as before. -daemon controls dispatch:
// auto (default), off, require, or an explicit socket path;
// $IRM_DAEMON_SOCKET overrides the derived location.
//
// `irm watch` is the continuous rebuild loop: it polls the group's
// sources for changes and rebuilds incrementally on every edit,
// holding the store lock for the whole session. Each iteration lands
// in the ledger, in the watch.latency_seconds histogram (-serve
// exposes it on /metrics, plus a live /watch SSE event stream), and —
// with -report — in an irm-watch/1 session summary with p50/p90/p99
// edit→rebuild latency. -drive n runs a scripted n-edit session
// against a workload-generated project (see `irm gen`), the harness
// CI's watch smoke test uses.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/depend"
)

func main() {
	cli.Usage = usage
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "daemon":
		cmdDaemon(os.Args[2:])
	case "watch":
		cmdWatch(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "history":
		cmdHistory(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	case "deps":
		cmdDeps(os.Args[2:])
	case "show":
		cmdShow(os.Args[2:])
	case "collision":
		cmdCollision(os.Args[2:])
	default:
		usage()
	}
}

// cmdShow compiles the named source files in order and prints each
// unit's interface — the per-unit "interface" view of §6.
func cmdShow(args []string) {
	if len(args) == 0 {
		usage()
	}
	session, err := compiler.NewSession(os.Stdout)
	if err != nil {
		cli.Fatal(err)
	}
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(err)
		}
		u, err := session.Run(path, string(src))
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Print(compiler.Describe(u))
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  irm build group.cm [-j n] [-store dir] [-policy cutoff|timestamp] [-v]
            [-trace out.json] [-jsonl out.jsonl] [-explain] [-report text|json]
            [-serve addr] [-history dir|off] [-daemon auto|off|require|socket]
            [-profile base] [-profile-period n]
  irm profile group.cm [-j n] [-store dir] [-policy p] [-history dir|off]
            [-n k] [-period n] [-o base]
  irm daemon [-store dir] [-socket path] [-addr host:port] [-j n] [-policy p]
            [-queue n] [-history dir|off] [-profile] [-profile-period n] [-v]
  irm watch group.cm [-j n] [-store dir] [-policy p] [-poll d] [-debounce d]
            [-serve addr] [-history dir|off] [-n k] [-drive k] [-drive-seed n]
            [-report text|json] [-v]
  irm serve [group.cm] [-addr host:port] [-store dir] [-policy p] [-j n] [-history dir|off]
  irm history [-store dir | -dir ledgerdir] [-n k] [-window w] [-threshold t] [-since d]
  irm top [-store dir | -dir ledgerdir] [-by cost|exec|fn] [-n k] [-since d]
  irm gen [-dir d] [-units n] [-lines n] [-seed n] [-shape s]
  irm deps  group.cm
  irm show  file.sml ...
  irm collision [-pids n]`)
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	f := cli.New()
	f.Report = "text"
	f.Register(fs, "store", "policy", "j", "v", "history",
		"trace", "jsonl", "explain", "report", "serve", "profile", "profile-period")
	daemonMode := fs.String("daemon", "auto", "daemon dispatch: auto, off, require, or a socket path")
	groupPath := cli.GroupArg(fs, args)
	if groupPath == "" {
		usage()
	}
	f.Validate()

	// Daemon dispatch: when a live daemon serves this store, hand it
	// the build and render its streamed frames — same output, summary,
	// and exit status as an in-process build. The local-only telemetry
	// surfaces (-trace, -jsonl, -serve) force the in-process path, and
	// any dial/probe failure falls back to it silently (unless
	// -daemon require). A daemon that answers but rejects with one of
	// PROTOCOL.md §9's backpressure codes (queue_full, draining) also
	// falls back in-process — the daemon is temporarily unavailable,
	// not broken; only -daemon require turns that into an error.
	// -profile forces the in-process path too: the profile files
	// belong to this invocation's Manager, not the daemon's (profile a
	// daemon's builds with `irm daemon -profile` and the
	// /debug/sml/profile endpoint instead).
	if *daemonMode != "off" && f.Trace == "" && f.JSONL == "" && f.Serve == "" && f.Profile == "" {
		socketFlag := ""
		if *daemonMode != "auto" && *daemonMode != "require" {
			socketFlag = *daemonMode
		}
		if c := dialDaemon(socketFlag, f.Store); c != nil {
			err := buildViaDaemon(c, groupPath, f)
			switch {
			case err == nil:
				return
			case *daemonMode != "require" && daemon.IsBackpressure(err):
				// Fall through to the in-process build below. Backpressure
				// rejections happen at admission, before the stream starts,
				// so nothing has been rendered yet.
			default:
				cli.Fatal(err)
			}
		} else if *daemonMode == "require" {
			cli.Fatal(fmt.Errorf("no live daemon for store %s (socket %s)",
				f.Store, daemon.ResolveSocket(socketFlag, f.Store)))
		}
	}

	group, err := core.LoadGroup(groupPath)
	if err != nil {
		cli.Fatal(err)
	}
	s := f.Open(false, nil)
	start := time.Now()
	_, buildErr := s.M.Build(group.Files)
	s.Record(group.Name, time.Since(start), buildErr)
	rep := s.M.Report(group.Name)
	s.Flush(group.Name, s.M.Prof, rep, buildErr)
	if f.Report == "text" {
		printReportSummary(&rep)
	}
}

func cmdDeps(args []string) {
	fs := flag.NewFlagSet("deps", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	group, err := core.LoadGroup(fs.Arg(0))
	if err != nil {
		cli.Fatal(err)
	}
	var infos []*depend.Info
	for _, f := range group.Files {
		info, err := depend.Analyze(f.Name, f.Source)
		if err != nil {
			cli.Fatal(err)
		}
		infos = append(infos, info)
	}
	deps := depend.Graph(infos)
	order, err := depend.TopoSort(infos)
	if err != nil {
		cli.Fatal(err)
	}
	for _, info := range order {
		fmt.Printf("%s:", info.Name)
		for _, d := range deps[info.Name] {
			fmt.Printf(" %s", d)
		}
		fmt.Println()
	}
}

// cmdCollision prints the paper's §5 collision analysis: with n pids
// in a system there are n(n-1)/2 pairs; each pair of 128-bit hashes
// collides with probability 2^-128.
func cmdCollision(args []string) {
	fs := flag.NewFlagSet("collision", flag.ExitOnError)
	pids := fs.Int("pids", 1<<13, "number of pids in the system")
	fs.Parse(args)

	n := float64(*pids)
	pairs := n * (n - 1) / 2
	log2Pairs := math.Log2(pairs)
	log2P := log2Pairs - 128
	fmt.Printf("pids:               %d (2^%.1f)\n", *pids, math.Log2(n))
	fmt.Printf("pairs:              %.0f (2^%.1f)\n", pairs, log2Pairs)
	fmt.Printf("P(any collision) <= 2^%.1f\n", log2P)
	fmt.Printf("paper (§5): 2^13 pids -> ~2^25 pairs -> P ~ 2^-103\n")
}
