package main

// The continuous-observability subcommands: `irm serve` (live
// /metrics, /debug/pprof, /healthz, /builds over a build), `irm
// history` (the build ledger as a trend table with regression
// flagging), `irm top` (per-unit cost aggregated across the ledger),
// and `irm gen` (materialize a synthetic workload for CI and
// profiling runs).

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/workload"
)

// cmdServe builds the group (if given) with full telemetry attached
// and then blocks, serving /metrics, /healthz, /builds, and
// /debug/pprof until killed. The listener binds before the build so a
// scrape or profile can attach from the first instant.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	f := cli.New()
	f.Register(fs, "store", "policy", "j", "history")
	addr := fs.String("addr", "127.0.0.1:0", "telemetry listen address")
	groupPath := cli.GroupArg(fs, args)
	f.Serve = *addr
	var group *core.Group
	if groupPath != "" {
		var err error
		if group, err = core.LoadGroup(groupPath); err != nil {
			cli.Fatal(err)
		}
	} else {
		// Nothing to build: leave the store untouched, but keep the
		// ledger where it would be beside it.
		if f.History == "" {
			f.History = cli.HistoryDir(f.Store)
		}
		f.Store = ""
	}
	s := f.Open(false, nil)
	if group != nil {
		start := time.Now()
		_, buildErr := s.M.Build(group.Files)
		s.Record(group.Name, time.Since(start), buildErr)
		if buildErr != nil {
			// Keep serving: the metrics of a failed build are the ones
			// worth scraping. The exit status is lost anyway (we block).
			fmt.Fprintln(os.Stderr, "irm:", buildErr)
		} else {
			st := s.M.Stats
			fmt.Printf("%s: %d units — parsed %d, compiled %d, loaded %d, cutoffs %d\n",
				group.Name, st.Units, st.Parsed, st.Compiled, st.Loaded, st.Cutoffs)
		}
	}
	select {} // serve until killed
}

// cmdHistory renders the ledger as a trend table, newest last, and
// flags wall-time regressions against the trailing median.
func cmdHistory(args []string) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	storeDir := fs.String("store", cli.DefaultStore, "bin cache directory the ledger sits beside")
	dir := fs.String("dir", "", "ledger directory (overrides -store derivation)")
	limit := fs.Int("n", 20, "show at most n newest records")
	window := fs.Int("window", 10, "trailing builds forming the regression baseline")
	threshold := fs.Float64("threshold", 0.25, "regression threshold (0.25 = 25% over median)")
	since := fs.Duration("since", 0, "only records newer than this age (e.g. 30m, 2h; 0 = all)")
	fs.Parse(args)

	ledgerDir := *dir
	if ledgerDir == "" {
		ledgerDir = cli.HistoryDir(*storeDir)
	}
	l, err := history.Open(ledgerDir, nil)
	if err != nil {
		cli.Fatal(err)
	}
	recs, skipped, err := l.ReadAll()
	if err != nil {
		cli.Fatal(err)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "irm: skipped %d corrupt ledger lines\n", skipped)
	}
	if *since > 0 {
		recs = history.FilterSince(recs, time.Now().Add(-*since))
	}
	if len(recs) == 0 {
		fmt.Println("no builds recorded")
		return
	}

	regs := history.Regressions(recs, *window, *threshold)
	flagged := map[int]history.Regression{}
	for _, r := range regs {
		flagged[r.Index] = r
	}

	from := 0
	if len(recs) > *limit {
		from = len(recs) - *limit
	}
	fmt.Printf("%-20s %-24s %-9s %10s %6s %6s %6s %7s\n",
		"WHEN", "NAME", "OUTCOME", "WALL", "UNITS", "COMP", "LOAD", "HIT%")
	for i := from; i < len(recs); i++ {
		r := recs[i]
		line := fmt.Sprintf("%-20s %-24s %-9s %10s %6d %6d %6d %6.1f%%",
			time.Unix(0, r.TimeUnixNs).Format("2006-01-02 15:04:05"),
			trunc(r.Name, 24), r.Outcome,
			time.Duration(r.WallNs).Round(time.Microsecond),
			r.Units, r.Compiled, r.Loaded, r.HitRate*100)
		if reg, ok := flagged[i]; ok {
			line += fmt.Sprintf("  REGRESSION +%.0f%% vs median %s",
				(reg.Ratio-1)*100, time.Duration(reg.BaselineNs).Round(time.Microsecond))
		}
		fmt.Println(line)
	}
	if len(regs) > 0 {
		fmt.Printf("%d regression(s) flagged (threshold %.0f%%, window %d)\n",
			len(regs), *threshold*100, *window)
	}
}

// cmdTop aggregates per-unit (or, with -by fn, per-function) cost
// across the ledger and prints the most expensive entries. -by cost
// ranks units by committed wall time, -by exec by execute-phase time
// alone, and -by fn by profiled self-steps (needs records written by
// profiled builds: `irm build -profile`, `irm profile`, or a daemon
// running with -profile).
func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	storeDir := fs.String("store", cli.DefaultStore, "bin cache directory the ledger sits beside")
	dir := fs.String("dir", "", "ledger directory (overrides -store derivation)")
	by := fs.String("by", "cost", "ranking: cost (unit wall time), exec (execute phase), or fn (profiled functions)")
	limit := fs.Int("n", 10, "show at most n rows")
	since := fs.Duration("since", 0, "only records newer than this age (e.g. 30m, 2h; 0 = all)")
	fs.Parse(args)

	ledgerDir := *dir
	if ledgerDir == "" {
		ledgerDir = cli.HistoryDir(*storeDir)
	}
	l, err := history.Open(ledgerDir, nil)
	if err != nil {
		cli.Fatal(err)
	}
	recs, _, err := l.ReadAll()
	if err != nil {
		cli.Fatal(err)
	}
	if *since > 0 {
		recs = history.FilterSince(recs, time.Now().Add(-*since))
	}
	switch *by {
	case "cost":
		top := history.Top(recs)
		if len(top) == 0 {
			fmt.Println("no unit timings recorded")
			return
		}
		if len(top) > *limit {
			top = top[:*limit]
		}
		fmt.Printf("%-24s %7s %7s %12s %12s %12s %6s\n",
			"UNIT", "BUILDS", "COMP", "TOTAL", "MEAN", "MAX", "SHARE")
		for _, u := range top {
			fmt.Printf("%-24s %7d %7d %12s %12s %12s %5.1f%%\n",
				trunc(u.Unit, 24), u.Builds, u.Compiled,
				time.Duration(u.TotalNs).Round(time.Microsecond),
				time.Duration(u.MeanNs).Round(time.Microsecond),
				time.Duration(u.MaxNs).Round(time.Microsecond),
				u.ShareOfAll*100)
		}
	case "exec":
		top := history.TopByExec(recs)
		if len(top) == 0 {
			fmt.Println("no execution timings recorded")
			return
		}
		if len(top) > *limit {
			top = top[:*limit]
		}
		fmt.Printf("%-24s %7s %12s %12s %12s %12s %6s\n",
			"UNIT", "BUILDS", "EXEC-TOTAL", "MEAN", "MAX", "STEPS", "SHARE")
		for _, u := range top {
			fmt.Printf("%-24s %7d %12s %12s %12s %12d %5.1f%%\n",
				trunc(u.Unit, 24), u.Builds,
				time.Duration(u.TotalNs).Round(time.Microsecond),
				time.Duration(u.MeanNs).Round(time.Microsecond),
				time.Duration(u.MaxNs).Round(time.Microsecond),
				u.Steps, u.ShareOfAll*100)
		}
	case "fn":
		top := history.TopFuncs(recs)
		if len(top) == 0 {
			fmt.Println("no profiled builds recorded (run a build with -profile)")
			return
		}
		if len(top) > *limit {
			top = top[:*limit]
		}
		fmt.Printf("%-28s %-16s %7s %12s %10s %10s %6s\n",
			"FUNCTION", "UNIT", "BUILDS", "SELF-STEPS", "APPLIES", "ALLOCS", "SHARE")
		for _, f := range top {
			fmt.Printf("%-28s %-16s %7d %12d %10d %10d %5.1f%%\n",
				trunc(f.Name, 28), trunc(f.Unit, 16), f.Builds,
				f.SelfSteps, f.Applies, f.Allocs, f.ShareOfAll*100)
		}
	default:
		usage()
	}
}

// cmdGen materializes a synthetic workload project to disk and prints
// the group-file path — the input CI's serve smoke test builds.
func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir := fs.String("dir", "irm-workload", "directory to write the project into")
	units := fs.Int("units", 12, "number of compilation units")
	lines := fs.Int("lines", 30, "approximate source lines per unit")
	seed := fs.Int64("seed", 7, "generator seed")
	shape := fs.String("shape", "layered", "dependency shape: chain, fan, diamond, or layered")
	fs.Parse(args)
	if *units < 1 || *lines < 1 {
		usage()
	}

	cfg := workload.Small()
	cfg.Units, cfg.LinesPerUnit, cfg.Seed = *units, *lines, *seed
	switch *shape {
	case "chain":
		cfg.Shape = workload.Chain
	case "fan":
		cfg.Shape = workload.Fan
	case "diamond":
		cfg.Shape = workload.Diamond
	case "layered":
		cfg.Shape = workload.Layered
	default:
		usage()
	}
	groupPath, err := workload.Generate(cfg).Materialize(*dir)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Println(groupPath)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
