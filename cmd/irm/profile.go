package main

// `irm profile`: the one-shot profiling run. It builds the group
// in-process with the SML-level execution profiler on (DESIGN.md
// §4k), prints the hot-function table, and — with -o — writes the
// same three artifacts `irm build -profile` does: the irm-profile/1
// JSON report, the folded-stack text, and the pprof profile.proto.
// Sampling is step-based, so the table is identical at any -j.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
)

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	storeDir := fs.String("store", ".irm-store", "bin cache directory")
	policy := fs.String("policy", "cutoff", "recompilation policy: cutoff or timestamp")
	jobs := fs.Int("j", 0, "parallel build workers (0 = one per core)")
	topN := fs.Int("n", 15, "rows in the hot-function table")
	period := fs.Uint64("period", 0, "sampling period in interpreter steps (0 = default)")
	out := fs.String("o", "", "also write <base>.json, <base>.folded, and <base>.pb")
	historyFlag := fs.String("history", "", "ledger directory ('' = beside the store, 'off' = disabled)")
	groupPath, rest := splitGroupArg(args)
	fs.Parse(rest)
	if groupPath == "" && fs.NArg() == 1 {
		groupPath = fs.Arg(0)
	}
	if groupPath == "" {
		usage()
	}
	group, err := core.LoadGroup(groupPath)
	if err != nil {
		fatal(err)
	}
	store, err := core.NewDirStore(*storeDir)
	if err != nil {
		fatal(err)
	}
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
	m.ProfilePeriod = *period
	if m.ProfilePeriod == 0 {
		m.ProfilePeriod = interp.DefaultProfilePeriod
	}

	ledger := openLedger(*historyFlag, *storeDir)
	start := time.Now()
	_, buildErr := m.Build(group.Files)
	recordBuild(ledger, m, group.Name, *jobs, time.Since(start), buildErr)
	// A failing build still yields a partial profile — print it before
	// reporting the error, like -trace does for traces.
	if m.Prof != nil {
		fmt.Println()
		m.Prof.WriteTable(os.Stdout, *topN)
		if *out != "" {
			if err := m.Prof.WriteFiles(*out, group.Name); err != nil {
				fatal(err)
			}
		}
	}
	if buildErr != nil {
		fatal(buildErr)
	}
}
