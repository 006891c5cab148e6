// Command bench is the repository's benchmark. It drives
// core.Manager.Build in-process on four generated workloads, checks every
// op's outcome, and prints end-to-end metrics, or per-layer metrics from
// a traced run with -trace 1. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload null-rebuild -seed 7 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1994, "seed of the generated projects and edit stream")
	seconds := fs.Float64("seconds", 10, "timed seconds per workload and set; -trace 1 gives a fifth of them to the traced run")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
	sets := fs.Int("sets", 1, "whole sets to run back to back; with more than one, prints every metric per set and the spread between sets")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "build width, at most GOMAXPROCS")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for traces and scratch stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sets: *sets,
		jobs: *jobs, size: fullSize, outDir: *out, workloads: workloadNames}
	if *wl != "all" {
		if !slices.Contains(workloadNames, *wl) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wl)
			return 2
		}
		cfg.workloads = []string{*wl}
	}
	// A width above GOMAXPROCS measures scheduler overhead, not
	// parallelism.
	if cfg.jobs < 1 || cfg.jobs > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(stderr, "bench: -j %d is outside 1..GOMAXPROCS (%d)\n", cfg.jobs, runtime.GOMAXPROCS(0))
		return 2
	}
	if *trace != 0 && *trace != 1 || cfg.seconds <= 0 || cfg.sets < 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -seconds positive and -sets at least 1")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, prov, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance says what produced a result, so two results are comparable
// or visibly not.
type provenance struct {
	GitCommit  string  `json:"git_commit"` // empty outside a git checkout
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Jobs       int     `json:"jobs"`
	Seed       int64   `json:"seed"` // of the projects, the edit stream and the exec program
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// Ops holds, per set and workload, the ops of each kind.
	Ops []map[string]opCounts `json:"ops"`
}

type opCounts struct {
	Setups int `json:"setups"`
	Warmup int `json:"warmup"`
	E2E    int `json:"e2e"`
	Traced int `json:"traced"`
	Failed int `json:"failed"`
}

// bench runs cfg.sets sets and reports each metric's median across them.
func bench(cfg config, log io.Writer) (result, provenance, error) {
	prov := collectProvenance(cfg)
	table := e2eMetrics
	if cfg.trace {
		table = layerMetrics
	}
	var sets [][]*runner
	for s := 0; s < cfg.sets; s++ {
		runners, err := runSet(cfg, s)
		if err != nil {
			return result{}, prov, err
		}
		fmt.Fprintf(log, "== set %d of %d\n", s+1, cfg.sets)
		ops := map[string]opCounts{}
		for _, r := range runners {
			report(log, r, cfg.trace)
			ops[r.name] = opCounts{Setups: len(r.setups), Warmup: warmupOps,
				E2E: len(r.e2e), Traced: len(r.traced), Failed: r.failed}
		}
		prov.Ops = append(prov.Ops, ops)
		sets = append(sets, runners)
	}
	res := result{Metrics: map[string]value{}}
	for _, runners := range sets {
		for _, r := range runners {
			res.Attempted += r.attempted
			res.Failed += r.failed
		}
	}
	res.Correct = res.Failed == 0
	if cfg.sets > 1 {
		fmt.Fprintf(log, "== each metric per set, and its spread between sets\n")
	}
	for i, name := range cfg.workloads {
		perSet := func(m metric) []float64 {
			var vals []float64
			for _, runners := range sets {
				vals = append(vals, m.value(runners[i]))
			}
			return vals
		}
		if cfg.sets > 1 {
			for _, m := range shown(cfg.trace) {
				vals := perSet(m)
				fmt.Fprintf(log, "%-13s %-28s %s spread %.1f%%\n", name, m.name,
					fmtVals(vals), 100*spread(vals))
			}
		}
		for _, m := range table {
			key := m.name
			if len(cfg.workloads) > 1 {
				key = name + "/" + m.name
			}
			res.Metrics[key] = value{quantile(perSet(m), 0.5), m.unit}
		}
	}
	return res, prov, nil
}

// shown is what the report on standard error shows: every metric the run
// measured.
func shown(traced bool) []metric {
	if traced {
		return slices.Concat(e2eMetrics, layerMetrics)
	}
	return slices.Concat(e2eMetrics, latencyMetrics)
}

// spread is the range of vals as a share of their median.
func spread(vals []float64) float64 {
	med := quantile(vals, 0.5)
	if med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / med
}

func fmtVals(vals []float64) string {
	var parts []string
	for _, v := range vals {
		parts = append(parts, fmt.Sprintf("%12.4g", v))
	}
	return strings.Join(parts, " ")
}

// report prints one workload's run for a reader: op counts, failures,
// every metric computed, and in the traced run each phase's share of
// the attributed busy time.
func report(log io.Writer, r *runner, traced bool) {
	fmt.Fprintf(log, "-- %s: %d e2e ops, %d traced ops, %d of %d attempted failed\n",
		r.name, len(r.e2e), len(r.traced), r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintf(log, "   FAILED: %s\n", e)
	}
	for _, m := range shown(traced) {
		fmt.Fprintf(log, "   %-28s %14.4f %s\n", m.name, m.value(r), m.unit)
	}
	if !traced {
		return
	}
	shares := map[string]float64{}
	for _, b := range r.builds {
		if busy := b.busy(); busy > 0 {
			for phase, t := range b.self {
				shares[phase] += t / busy / float64(len(r.builds))
			}
		}
	}
	phases := make([]string, 0, len(shares))
	for p := range shares {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return shares[phases[i]] > shares[phases[j]] })
	var parts []string
	for _, p := range phases {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", p, 100*shares[p]))
	}
	fmt.Fprintf(log, "   busy-time share by phase: %s\n", strings.Join(parts, ", "))
}

func collectProvenance(cfg config) provenance {
	p := provenance{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Jobs: cfg.jobs, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace}
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	// The ceiling keeps git from searching above the working directory.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		p.GitCommit = commit
		status, err := git("status", "--porcelain")
		p.GitDirty = err != nil || status != ""
	}
	return p
}
