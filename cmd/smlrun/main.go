// Command smlrun builds and executes a program given as SML source
// files: dependencies are discovered automatically (§6), the units are
// compiled or reloaded in topological order, type-safe linkage is
// enforced, and the program runs. With -bin, pre-compiled bin files
// are rehydrated, verified, and linked instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/binfile"
	"repro/internal/cli"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/linker"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
	"repro/internal/prof"
	"repro/internal/stamps"
)

func main() {
	cli.Name = "smlrun"
	f := &cli.Flags{ReportStderr: true}
	f.Register(flag.CommandLine, "store", "j", "v", "trace", "explain", "report", "profile", "profile-period")
	binMode := flag.Bool("bin", false, "arguments are bin files to link and run")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr,
			"usage: smlrun [-bin] [-store dir] [-j n] [-v] [-trace out.json] [-explain] [-report json] [-profile base] [-profile-period n] file ...")
		os.Exit(2)
	}
	f.Validate()
	if *binMode {
		runBins(f, flag.Args())
		return
	}

	s := f.Open(false, nil)
	var files []core.File
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(err)
		}
		files = append(files, core.File{Name: filepath.Base(path), Source: string(src)})
	}
	_, buildErr := s.M.Build(files)
	name := filepath.Base(flag.Arg(0))
	s.Flush(name, s.M.Prof, s.M.Report(name), buildErr)
	if f.Verbose {
		st := s.M.Stats
		fmt.Fprintf(os.Stderr, "units=%d compiled=%d loaded=%d cutoffs=%d corrupt=%d recovered=%d\n",
			st.Units, st.Compiled, st.Loaded, st.Cutoffs, st.Corrupt, st.Recovered)
	}
}

// runBins rehydrates, verifies, and executes pre-compiled bin files.
// The execute phase runs under a collector, so even a bin-only run
// gets per-unit execute spans (-trace) and exec.* counters
// (-report json) — and, with -profile, the same three profile
// artifacts a source build writes (bins carry no source text, so
// line numbers are absent from the symbolization).
func runBins(f *cli.Flags, paths []string) {
	session, err := compiler.NewSession(os.Stdout)
	if err != nil {
		cli.Fatal(err)
	}
	if f.Profile != "" {
		// The prelude already executed (inside NewSession, before
		// profiling starts), so it contributes no samples of its own;
		// program frames inside prelude functions still attribute to
		// "$prelude", the name its compiled form carries.
		session.Machine.StartProfile(f.ProfilePeriod)
	}

	// First pass: headers only, to order rehydration so providers load
	// before dependents regardless of argument order: a bin loads after
	// the providers of its imports and, found as its stubs are resolved
	// (originLoader), after the origins of its stubs, which a bin that
	// takes only types from another unit names without importing it.
	// The first bin given for a pid provides it.
	type binInfo struct {
		path    string
		data    []byte
		imports []pid.Pid
	}
	infos := make([]*binInfo, 0, len(paths))
	byPid := map[pid.Pid]*binInfo{}
	provider := map[pid.Pid]*binInfo{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(err)
		}
		_, statPid, imports, numSlots, err := binfile.ReadHeader(data)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %v", path, err))
		}
		bi := &binInfo{path: path, data: data, imports: imports}
		if byPid[statPid] == nil {
			byPid[statPid] = bi
		}
		for i := 0; i < numSlots; i++ {
			if p := statPid.Plus(uint64(i + 1)); provider[p] == nil {
				provider[p] = bi
			}
		}
		infos = append(infos, bi)
	}
	loaded := map[*binInfo]bool{}
	var units []*compiler.Unit
	var load func(bi *binInfo)
	load = func(bi *binInfo) {
		if bi == nil || loaded[bi] {
			return
		}
		loaded[bi] = true
		for _, im := range bi.imports {
			load(provider[im])
		}
		ctx := originLoader{session.Index, func(origin pid.Pid) { load(byPid[origin]) }}
		u, err := binfile.Read(bi.data, ctx, nil, nil)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %v", bi.path, err))
		}
		session.Index.Add(u.StatPid, u.Owned)
		units = append(units, u)
	}
	for _, bi := range infos {
		load(bi)
	}
	col := obs.New()
	col.BeginBuild()
	session.Machine.Obs = col
	rspan := col.StartSpan(obs.CatBuild, "run-bins")
	runErr := linker.Run(session.Machine, units, session.Dyn, rspan, col)
	rspan.End()
	if j, ok := runErr.(interface{ Unwrap() []error }); ok {
		// The link set failed verification: report every failure.
		for _, e := range j.Unwrap() {
			fmt.Fprintln(os.Stderr, "smlrun:", e)
		}
		os.Exit(1)
	}
	var p *prof.Profile
	if f.Profile != "" {
		b := prof.NewBuilder(session.Machine.ProfilePeriod())
		for _, u := range session.Units {
			b.AddUnit(u, compiler.PreludeSource)
		}
		for _, u := range units {
			b.AddUnit(u, "")
		}
		for _, up := range session.Machine.TakeUnitProfiles() {
			b.Add(up)
		}
		p = b.Finish()
	}
	s := &cli.Setup{Flags: f, Col: col}
	s.Flush("run-bins", p, map[string]any{"schema": obs.ReportSchema, "name": "run-bins",
		"counters": col.Counters()}, nil)
	if runErr != nil {
		cli.Fatal(runErr)
	}
}

// originLoader resolves stubs in the session's index. A stub whose
// origin the index does not hold yet first loads the bin of that
// origin, if one was given, which registers its objects.
type originLoader struct {
	ix   *pickle.Index
	load func(origin pid.Pid)
}

func (r originLoader) Lookup(s stamps.Stamp) (any, bool) {
	if obj, ok := r.ix.Lookup(s); ok {
		return obj, true
	}
	r.load(s.Origin)
	return r.ix.Lookup(s)
}
