// Command irm is the Incremental Recompilation Manager CLI (§6, §9 of
// the paper): it builds library groups described by ".cm"-style files,
// reusing cached bin files whenever the cutoff rule allows, and can
// display dependency graphs and the §5 hash-collision analysis.
//
//	irm build group.cm [-j n] [-store dir] [-policy cutoff|timestamp] [-v]
//	          [-trace out.json] [-jsonl out.jsonl] [-explain] [-report text|json]
//	          [-serve addr] [-history dir|off] [-daemon auto|off|require|socket]
//	          [-profile base] [-profile-period n]
//	irm profile group.cm [-j n] [-store dir] [-policy p] [-n k] [-period n] [-o base]
//	irm daemon [-store dir] [-socket path] [-addr host:port] [-j n] [-policy p]
//	          [-queue n] [-history dir|off] [-profile] [-profile-period n] [-v]
//	irm watch group.cm [-j n] [-store dir] [-policy p] [-poll d] [-debounce d]
//	          [-serve addr] [-history dir|off] [-n k] [-drive k] [-report text|json] [-v]
//	irm serve [group.cm] [-addr host:port] [-store dir] [-j n] [-history dir|off]
//	irm history [-store dir | -dir ledgerdir] [-n k] [-window w] [-threshold t] [-since d]
//	irm top [-store dir | -dir ledgerdir] [-by cost|exec|fn] [-n k] [-since d]
//	irm gen [-dir d] [-units n] [-lines n] [-seed n] [-shape s]
//	irm bench [-out BENCH_irm.json] [-units n] [-lines n] [-seed n] [-j n]
//	irm deps  group.cm
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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "daemon":
		cmdDaemon(os.Args[2:])
	case "bench":
		cmdBench(os.Args[2:])
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
		fatal(err)
	}
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		u, err := session.Run(path, string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Print(compiler.Describe(u))
		fmt.Println()
	}
}

// splitGroupArg accepts the group file either before or after the
// flags (Go's flag package stops at the first positional argument).
func splitGroupArg(args []string) (group string, rest []string) {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		return args[0], args[1:]
	}
	return "", args
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  irm build group.cm [-j n] [-store dir] [-policy cutoff|timestamp] [-v]
            [-trace out.json] [-jsonl out.jsonl] [-explain] [-report text|json]
            [-serve addr] [-history dir|off] [-daemon auto|off|require|socket]
            [-profile base] [-profile-period n]
  irm profile group.cm [-j n] [-store dir] [-policy p] [-n k] [-period n] [-o base]
  irm daemon [-store dir] [-socket path] [-addr host:port] [-j n] [-policy p]
            [-queue n] [-history dir|off] [-profile] [-profile-period n] [-v]
  irm watch group.cm [-j n] [-store dir] [-policy p] [-poll d] [-debounce d]
            [-serve addr] [-history dir|off] [-n k] [-drive k] [-report text|json] [-v]
  irm serve [group.cm] [-addr host:port] [-store dir] [-policy p] [-j n] [-history dir|off]
  irm history [-store dir | -dir ledgerdir] [-n k] [-window w] [-threshold t] [-since d]
  irm top [-store dir | -dir ledgerdir] [-by cost|exec|fn] [-n k] [-since d]
  irm gen [-dir d] [-units n] [-lines n] [-seed n] [-shape s]
  irm bench [-out BENCH_irm.json] [-units n] [-lines n] [-seed n] [-j n]
  irm deps  group.cm
  irm show  file.sml ...
  irm collision [-pids n]`)
	os.Exit(2)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	storeDir := fs.String("store", ".irm-store", "bin cache directory")
	policy := fs.String("policy", "cutoff", "recompilation policy: cutoff or timestamp")
	jobs := fs.Int("j", 0, "parallel build workers (0 = one per core)")
	verbose := fs.Bool("v", false, "log per-unit actions")
	tracePath := fs.String("trace", "", "write Chrome trace_event JSON to this file")
	jsonlPath := fs.String("jsonl", "", "write spans, explains, and counters as JSON lines to this file")
	explain := fs.Bool("explain", false, "stream one rebuild-decision JSON record per unit to stderr")
	report := fs.String("report", "text", "build summary format: text or json")
	serveAddr := fs.String("serve", "", "serve /metrics and /debug/pprof on this address while the build runs")
	historyFlag := fs.String("history", "", "ledger directory ('' = beside the store, 'off' = disabled)")
	daemonMode := fs.String("daemon", "auto", "daemon dispatch: auto, off, require, or a socket path")
	profileOut := fs.String("profile", "", "profile SML execution; write <base>.json, <base>.folded, <base>.pb")
	profPeriod := fs.Uint64("profile-period", 0, "sampling period in interpreter steps (0 = default)")
	groupPath, rest := splitGroupArg(args)
	fs.Parse(rest)
	if groupPath == "" && fs.NArg() == 1 {
		groupPath = fs.Arg(0)
	}
	if groupPath == "" {
		usage()
	}
	if *report != "text" && *report != "json" {
		usage()
	}
	if *policy != "cutoff" && *policy != "timestamp" {
		usage()
	}

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
	if *daemonMode != "off" && *tracePath == "" && *jsonlPath == "" && *serveAddr == "" &&
		*profileOut == "" {
		socketFlag := ""
		if *daemonMode != "auto" && *daemonMode != "require" {
			socketFlag = *daemonMode
		}
		if c := dialDaemon(socketFlag, *storeDir); c != nil {
			err := buildViaDaemon(c, groupPath, *policy, *jobs, *explain, *report)
			switch {
			case err == nil:
				return
			case *daemonMode != "require" && daemon.IsBackpressure(err):
				// Fall through to the in-process build below. Backpressure
				// rejections happen at admission, before the stream starts,
				// so nothing has been rendered yet.
			default:
				fatal(err)
			}
		} else if *daemonMode == "require" {
			fatal(fmt.Errorf("no live daemon for store %s (socket %s)",
				*storeDir, daemon.ResolveSocket(socketFlag, *storeDir)))
		}
	}

	group, err := core.LoadGroup(groupPath)
	if err != nil {
		fatal(err)
	}
	store, err := core.NewDirStore(*storeDir)
	if err != nil {
		fatal(err)
	}
	// One collector spans the manager, the store, and the lock path.
	col := obs.New()
	store.Obs = col
	m := &core.Manager{Store: store, Stdout: os.Stdout, Obs: col, Jobs: *jobs}
	switch *policy {
	case "cutoff":
		m.Policy = core.PolicyCutoff
	case "timestamp":
		m.Policy = core.PolicyTimestamp
	default:
		usage()
	}
	if *verbose {
		m.Log = os.Stderr
	}
	if *profileOut != "" {
		m.ProfilePeriod = *profPeriod
		if m.ProfilePeriod == 0 {
			m.ProfilePeriod = interp.DefaultProfilePeriod
		}
	}
	ledger := openLedger(*historyFlag, *storeDir)
	var liveProf *prof.Live
	if *serveAddr != "" {
		// Bind before the build so a scraper or profiler can attach from
		// the first instant; the listener dies with the process.
		srv := obsserve.New(col, ledger)
		if *profileOut != "" {
			liveProf = &prof.Live{}
			srv.Prof = liveProf
		}
		if _, err := startServer(*serveAddr, srv); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	_, buildErr := m.Build(group.Files)
	recordBuild(ledger, m, group.Name, *jobs, time.Since(start), buildErr)
	// Telemetry is flushed before the build error is reported: a trace
	// of a failing build is the one you want most. Same for the
	// profile: a partial profile of a failing build still attributes
	// the steps that did run.
	flushTelemetry(col, *tracePath, *jsonlPath)
	if *profileOut != "" && m.Prof != nil {
		if liveProf != nil {
			liveProf.Set(group.Name, m.Prof)
		}
		if err := m.Prof.WriteFiles(*profileOut, group.Name); err != nil {
			fatal(err)
		}
	}
	if *explain {
		if err := obs.WriteExplainJSONL(os.Stderr, m.Explains); err != nil {
			fatal(err)
		}
	}
	if buildErr != nil {
		fatal(buildErr)
	}
	if *report == "json" {
		writeJSONLine(os.Stdout, m.Report(group.Name))
		return
	}
	st := m.Stats
	fmt.Printf("%s: %d units — parsed %d, compiled %d, loaded %d, cutoffs %d, corrupt %d, recovered %d\n",
		group.Name, st.Units, st.Parsed, st.Compiled, st.Loaded, st.Cutoffs, st.Corrupt, st.Recovered)
	fmt.Printf("  compile %v, hash %v, pickle %v, load %v, exec %v\n",
		st.CompileTime, st.HashTime, st.PickleTime, st.LoadTime, st.ExecTime)
}

// flushTelemetry writes the collector's trace and JSONL files, if
// requested.
func flushTelemetry(col *obs.Collector, tracePath, jsonlPath string) {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := col.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			fatal(err)
		}
		if err := col.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
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
		fatal(err)
	}
	var infos []*depend.Info
	for _, f := range group.Files {
		info, err := depend.Analyze(f.Name, f.Source)
		if err != nil {
			fatal(err)
		}
		infos = append(infos, info)
	}
	deps := depend.Graph(infos)
	order, err := depend.TopoSort(infos)
	if err != nil {
		fatal(err)
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

// writeJSONLine marshals v onto a single line of w — keeping the
// machine-readable report greppable as "the last line of stdout" even
// when program output precedes it.
func writeJSONLine(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irm:", err)
	os.Exit(1)
}
