// Command smlrun builds and executes a program given as SML source
// files: dependencies are discovered automatically (§6), the units are
// compiled or reloaded in topological order, type-safe linkage is
// enforced, and the program runs. With -bin, pre-compiled bin files
// are rehydrated, verified, and linked instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/obs"
	"repro/internal/pid"
	"repro/internal/prof"
)

func main() {
	binMode := flag.Bool("bin", false, "arguments are bin files to link and run")
	storeDir := flag.String("store", "", "bin cache directory (enables incremental reuse)")
	jobs := flag.Int("j", 0, "parallel build workers (0 = one per core)")
	verbose := flag.Bool("v", false, "log per-unit actions")
	tracePath := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	explain := flag.Bool("explain", false, "stream one rebuild-decision JSON record per unit to stderr")
	report := flag.String("report", "", "with 'json', write a machine-readable build report line to stderr")
	profileOut := flag.String("profile", "", "profile SML execution; write <base>.json, <base>.folded, <base>.pb")
	profPeriod := flag.Uint64("profile-period", 0, "sampling period in interpreter steps (0 = default)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr,
			"usage: smlrun [-bin] [-store dir] [-j n] [-v] [-trace out.json] [-explain] [-report json] [-profile base] [-profile-period n] file ...")
		os.Exit(2)
	}
	if *report != "" && *report != "json" {
		fatal(fmt.Errorf("unknown -report format %q (want json)", *report))
	}
	if *binMode {
		runBins(flag.Args(), *tracePath, *report, *profileOut, *profPeriod)
		return
	}

	col := obs.New()
	m := core.NewManager()
	m.Stdout = os.Stdout
	m.Obs = col
	m.Jobs = *jobs
	if *profileOut != "" {
		m.ProfilePeriod = *profPeriod
		if m.ProfilePeriod == 0 {
			m.ProfilePeriod = interp.DefaultProfilePeriod
		}
	}
	if *verbose {
		m.Log = os.Stderr
	}
	if *storeDir != "" {
		store, err := core.NewDirStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		store.Obs = col
		m.Store = store
	}

	var files []core.File
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		files = append(files, core.File{Name: filepath.Base(path), Source: string(src)})
	}
	_, buildErr := m.Build(files)
	if *tracePath != "" {
		writeTrace(col, *tracePath)
	}
	if *profileOut != "" && m.Prof != nil {
		name := "smlrun"
		if flag.NArg() > 0 {
			name = filepath.Base(flag.Arg(0))
		}
		if err := m.Prof.WriteFiles(*profileOut, name); err != nil {
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
		// The program's own output owns stdout; the report goes to
		// stderr as a single JSON line.
		name := "smlrun"
		if flag.NArg() > 0 {
			name = filepath.Base(flag.Arg(0))
		}
		data, err := json.Marshal(m.Report(name))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, string(data))
	}
	if *verbose {
		st := m.Stats
		fmt.Fprintf(os.Stderr, "units=%d compiled=%d loaded=%d cutoffs=%d corrupt=%d recovered=%d\n",
			st.Units, st.Compiled, st.Loaded, st.Cutoffs, st.Corrupt, st.Recovered)
	}
}

// writeTrace writes the collector's Chrome trace_event file.
func writeTrace(col *obs.Collector, path string) {
	f, err := os.Create(path)
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

// runBins rehydrates, verifies, and executes pre-compiled bin files.
// The execute phase runs under a collector, so even a bin-only run
// gets per-unit execute spans (-trace) and exec.* counters
// (-report json) — and, with -profile, the same three profile
// artifacts a source build writes (bins carry no source text, so
// line numbers are absent from the symbolization).
func runBins(paths []string, tracePath, report, profileOut string, profPeriod uint64) {
	session, err := compiler.NewSession(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if profileOut != "" {
		// The prelude already executed (inside NewSession, before
		// profiling starts) so it contributes no samples, but register
		// it anyway: program closures that call into prelude functions
		// should attribute those frames by name.
		session.Machine.StartProfile(profPeriod)
		for _, u := range session.Units {
			session.Machine.ProfRegister(u.Name, u.Prog)
		}
	}

	// First pass: headers only, to order rehydration so providers load
	// before dependents regardless of argument order.
	type binInfo struct {
		path    string
		data    []byte
		exports map[pid.Pid]bool
		imports []pid.Pid
	}
	infos := make([]*binInfo, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		_, statPid, imports, numSlots, err := binfile.ReadHeader(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", path, err))
		}
		bi := &binInfo{path: path, data: data, imports: imports, exports: map[pid.Pid]bool{}}
		for i := 0; i < numSlots; i++ {
			bi.exports[statPid.Plus(uint64(i+1))] = true
		}
		infos = append(infos, bi)
	}
	providerOf := func(p pid.Pid) *binInfo {
		for _, bi := range infos {
			if bi.exports[p] {
				return bi
			}
		}
		return nil
	}
	loaded := map[*binInfo]bool{}
	var units []*compiler.Unit
	var load func(bi *binInfo)
	load = func(bi *binInfo) {
		if loaded[bi] {
			return
		}
		loaded[bi] = true
		for _, im := range bi.imports {
			if p := providerOf(im); p != nil && p != bi {
				load(p)
			}
		}
		u, err := binfile.Read(bi.data, session.Index)
		if err != nil {
			fatal(fmt.Errorf("%s: %v", bi.path, err))
		}
		session.Index.AddEnv(u.Env)
		units = append(units, u)
	}
	for _, bi := range infos {
		load(bi)
	}
	if errs := linker.Verify(units, session.Dyn); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "smlrun:", e)
		}
		os.Exit(1)
	}
	col := obs.New()
	col.BeginBuild()
	session.Dyn.Obs = col
	session.Machine.Obs = col
	rspan := col.StartSpan(obs.CatBuild, "run-bins")
	runErr := linker.RunObserved(session.Machine, units, session.Dyn, rspan, col)
	rspan.End()
	if tracePath != "" {
		writeTrace(col, tracePath)
	}
	if profileOut != "" {
		b := prof.NewBuilder(session.Machine.ProfilePeriod())
		for _, u := range session.Units {
			b.AddUnit(u.Name, u.Term(), u.Env, compiler.PreludeSource)
		}
		for _, u := range units {
			b.AddUnit(u.Name, u.Term(), u.Env, "")
		}
		for _, up := range session.Machine.TakeUnitProfiles() {
			b.Add(up)
		}
		if err := b.Finish().WriteFiles(profileOut, "run-bins"); err != nil {
			fatal(err)
		}
	}
	if report == "json" {
		rep := map[string]any{"schema": obs.ReportSchema, "name": "run-bins",
			"counters": col.Counters()}
		data, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, string(data))
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smlrun:", err)
	os.Exit(1)
}
