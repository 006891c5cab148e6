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

	"repro/internal/cli"
	"repro/internal/core"
)

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	f := cli.New()
	f.Register(fs, "store", "policy", "j", "history")
	topN := fs.Int("n", 15, "rows in the hot-function table")
	period := fs.Uint64("period", 0, "sampling period in interpreter steps (0 = default)")
	out := fs.String("o", "", "also write <base>.json, <base>.folded, and <base>.pb")
	groupPath := cli.GroupArg(fs, args)
	if groupPath == "" {
		usage()
	}
	group, err := core.LoadGroup(groupPath)
	if err != nil {
		cli.Fatal(err)
	}
	s := f.Open(false, nil)
	m := s.M
	m.ProfilePeriod = cli.ProfilePeriod(*period)

	start := time.Now()
	_, buildErr := m.Build(group.Files)
	s.Record(group.Name, time.Since(start), buildErr)
	// A failing build still yields a partial profile — print it before
	// reporting the error, like -trace does for traces.
	if m.Prof != nil {
		fmt.Println()
		m.Prof.WriteTable(os.Stdout, *topN)
		if *out != "" {
			if err := m.Prof.WriteFiles(*out, group.Name); err != nil {
				cli.Fatal(err)
			}
		}
	}
	if buildErr != nil {
		cli.Fatal(buildErr)
	}
}
