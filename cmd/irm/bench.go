package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// BenchSchema identifies the BENCH_irm.json format. Version 3 adds
// per-scenario heap-allocation deltas and the warm-env-cache record
// (rehydration speedup and hit rate of the pid-keyed EnvCache);
// version 4 adds the provenance record (git commit, dirty flag, Go
// version, GOMAXPROCS) so archived bench files say what produced them;
// version 5 records the exec engine in the config (now always
// "closure") and per-scenario execution figures (exec wall time, peak
// exec parallelism) from the compiled-execution engine's counters.
const BenchSchema = "irm-bench/5"

// BenchFile is the machine-readable output of `irm bench`: the edit
// matrix of the paper's evaluation (cold / null / implementation edit
// / interface edit) run against one generated project at each worker
// count, with wall time, Stats, phase timings, and raw counters per
// scenario — the repo's perf trajectory as data.
type BenchFile struct {
	Schema     string          `json:"schema"`
	Provenance BenchProvenance `json:"provenance"`
	Config     BenchConfig     `json:"config"`
	Matrix     []BenchRun      `json:"matrix"`
	Speedup    BenchSpeedup    `json:"speedup"`
	WarmCache  BenchWarmCache  `json:"warm_cache"`
}

// BenchProvenance records what produced a bench file, so two archived
// runs are comparable (or provably not): the commit the tree was at,
// whether the tree was dirty, and the toolchain and parallelism the
// numbers were measured under.
type BenchProvenance struct {
	GitCommit  string `json:"git_commit,omitempty"` // empty outside a git checkout
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// collectProvenance gathers the provenance record. git failures are
// not errors — a bench run outside a checkout simply has no commit.
func collectProvenance() BenchProvenance {
	p := BenchProvenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		p.GitDirty = len(strings.TrimSpace(string(out))) > 0
	}
	return p
}

// BenchConfig echoes the workload parameters the run used.
type BenchConfig struct {
	Units        int    `json:"units"`
	LinesPerUnit int    `json:"lines_per_unit"`
	Shape        string `json:"shape"`
	Seed         int64  `json:"seed"`
	Policy       string `json:"policy"`
	ExecEngine   string `json:"exec_engine"` // always closure; kept for irm-bench/5
}

// BenchRun is the edit matrix at one scheduler width.
type BenchRun struct {
	Jobs      int             `json:"jobs"`
	Scenarios []BenchScenario `json:"scenarios"`
}

// BenchScenario is one build of the edit matrix. Allocs and
// AllocBytes are heap-allocation deltas (runtime.MemStats Mallocs /
// TotalAlloc) across the build; AllocsPerUnit divides by the project
// size so widths and PRs compare on the same scale.
type BenchScenario struct {
	Name          string `json:"name"`
	WallNs        int64  `json:"wall_ns"`
	Allocs        uint64 `json:"allocs"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	AllocsPerUnit uint64 `json:"allocs_per_unit"`
	// ExecNs is the summed unit-execution time (counter time.exec_ns)
	// and ExecParallelism the peak number of units executing at once
	// (counter exec.parallelism.max) — the schema-5 view of the
	// parallel exec stage.
	ExecNs          int64      `json:"exec_ns"`
	ExecParallelism int64      `json:"exec_parallelism"`
	Report          obs.Report `json:"report"`
}

// BenchSpeedup compares the cold build across scheduler widths — the
// headline number of the parallel scheduler.
type BenchSpeedup struct {
	Jobs         int     `json:"jobs"`            // the parallel width measured
	ColdWallNsJ1 int64   `json:"cold_wall_ns_j1"` // cold build, one worker
	ColdWallNsJN int64   `json:"cold_wall_ns_jn"` // cold build, Jobs workers
	ColdSpeedup  float64 `json:"cold_speedup"`    // j1 / jn wall-time ratio
}

// BenchWarmCache measures the pid-keyed rehydration cache
// (pickle.EnvCache): after a cold build, two null rebuilds run on
// fresh managers sharing one private cache. The first rebuild decodes
// every environment (all misses, populating the cache); the second
// serves every environment from the cache (all hits). Speedup is the
// first rebuild's wall time over the second's.
type BenchWarmCache struct {
	ColdWallNs  int64   `json:"cold_wall_ns"`
	Warm1WallNs int64   `json:"warm1_wall_ns"` // null rebuild, cold cache
	Warm2WallNs int64   `json:"warm2_wall_ns"` // null rebuild, warm cache
	Hits        int64   `json:"hits"`          // env-cache hits in rebuild 2
	Misses      int64   `json:"misses"`        // env-cache misses in rebuild 1
	HitRate     float64 `json:"hit_rate"`      // hits / loads in rebuild 2
	Speedup     float64 `json:"speedup"`       // warm1 / warm2 wall ratio
}

// memDelta runs f and returns the heap-allocation deltas across it.
func memDelta(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// warmCacheRun measures BenchWarmCache on an in-memory store so the
// rebuild wall times isolate rehydration cost from disk I/O.
func warmCacheRun(files []core.File, pol core.Policy) (BenchWarmCache, error) {
	store := core.NewMemStore()
	cache := pickle.NewEnvCache(0)
	build := func() (*core.Manager, int64, error) {
		m := &core.Manager{Policy: pol, Store: store, Stdout: io.Discard, EnvCache: cache}
		t0 := time.Now()
		_, err := m.Build(files)
		return m, int64(time.Since(t0)), err
	}
	var wc BenchWarmCache
	_, cold, err := build()
	if err != nil {
		return wc, err
	}
	m1, warm1, err := build()
	if err != nil {
		return wc, err
	}
	m2, warm2, err := build()
	if err != nil {
		return wc, err
	}
	wc = BenchWarmCache{
		ColdWallNs: cold, Warm1WallNs: warm1, Warm2WallNs: warm2,
		Hits:   m2.Counters["cache.env_hits"],
		Misses: m1.Counters["cache.env_misses"],
	}
	if loads := m2.Counters["cache.env_hits"] + m2.Counters["cache.env_misses"]; loads > 0 {
		wc.HitRate = float64(wc.Hits) / float64(loads)
	}
	if warm2 > 0 {
		wc.Speedup = float64(warm1) / float64(warm2)
	}
	return wc, nil
}

// cmdBench runs the bench harness: generate a layered project, then
// for each scheduler width (-j1 and -jN) build it cold, null, after an
// implementation-only edit (cutoff), and after an interface edit
// (cascade), each width against its own fresh on-disk store, and write
// the results as JSON.
func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_irm.json", "output file (- for stdout)")
	units := fs.Int("units", 60, "units in the generated project")
	lines := fs.Int("lines", 30, "approximate lines per unit")
	seed := fs.Int64("seed", 1994, "workload generator seed")
	policy := fs.String("policy", "cutoff", "recompilation policy: cutoff or timestamp")
	jobs := fs.Int("j", 0, "parallel width to compare against -j1, at most GOMAXPROCS (0 = GOMAXPROCS)")
	fs.Parse(args)
	cfg := workload.Config{
		Shape: workload.Layered, Units: *units, LinesPerUnit: *lines,
		FunsPerUnit: 4, FanIn: 3, LayerWidth: 6, Seed: *seed,
	}
	p := workload.Generate(cfg)

	pol := core.PolicyCutoff
	switch *policy {
	case "cutoff":
	case "timestamp":
		pol = core.PolicyTimestamp
	default:
		usage()
	}
	jn := *jobs
	if jn <= 0 {
		jn = runtime.GOMAXPROCS(0)
	}
	// A width above GOMAXPROCS measures scheduler overhead, not
	// parallelism, and would be recorded as cold_speedup.
	if jn > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr, "irm bench: -j %d is outside 1..GOMAXPROCS (%d)\n", jn, runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	widths := []int{1}
	if jn != 1 {
		widths = append(widths, jn)
	}

	// The edited unit is the base of the DAG, so the interface edit
	// cascades through the widest possible cone.
	scenarios := []struct {
		name  string
		files []core.File
	}{
		{"cold", p.Files},
		{"null", p.Files},
		{"impl-edit", p.Edit(0, workload.ImplEdit, 1)},
		{"interface-edit", p.Edit(0, workload.InterfaceEdit, 2)},
	}

	bf := BenchFile{
		Schema:     BenchSchema,
		Provenance: collectProvenance(),
		Config: BenchConfig{
			Units: cfg.Units, LinesPerUnit: cfg.LinesPerUnit,
			Shape: cfg.Shape.String(), Seed: cfg.Seed, Policy: pol.String(),
			ExecEngine: "closure",
		},
	}
	coldWall := map[int]int64{}
	for _, w := range widths {
		storeDir, err := os.MkdirTemp("", "irm-bench-store-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(storeDir)
		run := BenchRun{Jobs: w}
		for _, sc := range scenarios {
			store, err := core.NewDirStore(storeDir)
			if err != nil {
				fatal(err)
			}
			col := obs.New()
			store.Obs = col
			m := &core.Manager{Policy: pol, Store: store, Stdout: io.Discard, Obs: col, Jobs: w}
			var wall time.Duration
			var buildErr error
			allocs, allocBytes := memDelta(func() {
				t0 := time.Now()
				_, buildErr = m.Build(sc.files)
				wall = time.Since(t0)
			})
			if buildErr != nil {
				fatal(fmt.Errorf("bench scenario %s (-j%d): %v", sc.name, w, buildErr))
			}
			if sc.name == "cold" {
				coldWall[w] = int64(wall)
			}
			run.Scenarios = append(run.Scenarios, BenchScenario{
				Name:            sc.name,
				WallNs:          int64(wall),
				Allocs:          allocs,
				AllocBytes:      allocBytes,
				AllocsPerUnit:   allocs / uint64(len(p.Files)),
				ExecNs:          m.Counters["time.exec_ns"],
				ExecParallelism: m.Counters["exec.parallelism.max"],
				Report:          m.Report(sc.name),
			})
			fmt.Fprintf(os.Stderr, "irm bench: -j%-2d %-14s %10v  compiled %3d, loaded %3d, cutoffs %3d\n",
				w, sc.name, wall.Round(time.Microsecond), m.Stats.Compiled, m.Stats.Loaded, m.Stats.Cutoffs)
		}
		bf.Matrix = append(bf.Matrix, run)
	}
	bf.Speedup = BenchSpeedup{Jobs: jn, ColdWallNsJ1: coldWall[1], ColdWallNsJN: coldWall[jn]}
	if coldWall[jn] > 0 {
		bf.Speedup.ColdSpeedup = float64(coldWall[1]) / float64(coldWall[jn])
	}
	fmt.Fprintf(os.Stderr, "irm bench: cold speedup -j%d vs -j1: %.2fx\n",
		jn, bf.Speedup.ColdSpeedup)

	wc, err := warmCacheRun(p.Files, pol)
	if err != nil {
		fatal(fmt.Errorf("bench warm-cache run: %v", err))
	}
	bf.WarmCache = wc
	fmt.Fprintf(os.Stderr, "irm bench: warm env-cache rebuild: %.2fx (hit rate %.0f%%, %d hits)\n",
		wc.Speedup, wc.HitRate*100, wc.Hits)

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	writeJSONLine(w, bf)
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "irm bench: wrote %s\n", *out)
	}
}
