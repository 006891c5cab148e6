package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// config is one invocation of the benchmark.
type config struct {
	workloads []string
	seed      int64
	seconds   float64 // of timed ops per workload and set, e2e plus traced
	ops       int     // when > 0, timed e2e ops per workload instead of seconds
	trace     bool
	sets      int
	jobs      int
	size      size
	outDir    string
}

const (
	setupReps = 5 // setups per run; setup_s is their median
	warmupOps = 3
	// rounds splits each run's timed ops; the rounds go round-robin
	// across the workloads, so a slow drift of the machine hits them all.
	rounds = 5
	// tracedShare is the traced run's part of the timed time: a quarter
	// of the e2e run's.
	tracedShare = 0.2
	// minE2EOps keeps at least ten samples beyond build_p90_ms: the last
	// e2e round runs past its time until the run has this many ops.
	minE2EOps = 100
)

// sample is one timed op.
type sample struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
	counters      map[string]int64 // traced run only
	io            *ioStats         // traced run only
}

// runner is one workload's run within a set.
type runner struct {
	name              string
	w                 scenario
	plain, tracedKit  *kit
	setups            []float64 // seconds
	e2e, traced       []sample
	attempted, failed int
	errs              []string

	// Filled once the timed ops are over.
	storeBytes int64
	builds     []buildTimes
}

func newRunner(name string, cfg config, dir string) (*runner, error) {
	r := &runner{name: name, plain: &kit{jobs: cfg.jobs}}
	if cfg.trace {
		r.tracedKit = &kit{jobs: cfg.jobs, col: obs.New()}
	}
	for i := 0; i < setupReps; i++ {
		w, err := newWorkload(name, cfg.seed, cfg.size)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = w.setup(filepath.Join(dir, fmt.Sprint("setup-", i)), r.plain)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if r.w != nil {
			r.w.close()
		}
		r.w = w
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
	}
	return r, nil
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// op runs and checks one op, keeping its sample in into unless it is a
// warm-up op (into == nil). A failed op keeps no sample.
func (r *runner) op(k *kit, into *[]sample) {
	r.attempted++
	s, err := r.timedBuild(k)
	if err != nil {
		r.fail(err)
		return
	}
	if into != nil {
		*into = append(*into, s)
	}
}

func (r *runner) timedBuild(k *kit) (sample, error) {
	m, files, err := r.w.next(k)
	if err != nil {
		return sample{}, err
	}
	var out bytes.Buffer
	m.Stdout = &out
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	_, err = m.Build(files)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return sample{}, err
	}
	if err := r.w.verify(m, out.Bytes()); err != nil {
		return sample{}, err
	}
	s := sample{wall: wall, cpu: cpu,
		allocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc}
	if k.col != nil {
		s.counters, s.io = m.Counters, k.io
	}
	return s, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round runs one round of the e2e or the traced run.
func (r *runner) round(cfg config, traced bool, i int) {
	k, into, share, total := r.plain, &r.e2e, 1.0, cfg.ops
	if cfg.trace {
		share = 1 - tracedShare
	}
	if traced {
		k, into, share, total = r.tracedKit, &r.traced, tracedShare, max(1, cfg.ops/4)
	}
	if cfg.ops > 0 {
		for n := total*(i+1)/rounds - total*i/rounds; n > 0; n-- {
			r.op(k, into)
		}
		return
	}
	dur := time.Duration(cfg.seconds * share / rounds * float64(time.Second))
	short := func() bool {
		return !traced && i == rounds-1 && r.failed == 0 && len(*into) < minE2EOps
	}
	for t0 := time.Now(); time.Since(t0) < dur || short(); {
		r.op(k, into)
	}
}

// runSet runs every workload of cfg once: setups, warm-up, the e2e run,
// the traced run, and the end-of-run checks.
func runSet(cfg config, set int) ([]*runner, error) {
	work := filepath.Join(cfg.outDir, fmt.Sprint("work-", os.Getpid()))
	defer os.RemoveAll(work)
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.w.close()
		}
	}()
	for _, name := range cfg.workloads {
		r, err := newRunner(name, cfg, filepath.Join(work, name))
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	for _, r := range runners {
		for i := 0; i < warmupOps; i++ {
			r.op(r.plain, nil)
		}
	}
	for i := 0; i < rounds; i++ {
		for _, r := range runners {
			r.round(cfg, false, i)
		}
	}
	if cfg.trace {
		for i := 0; i < rounds; i++ {
			for _, r := range runners {
				r.round(cfg, true, i)
			}
		}
	}
	for _, r := range runners {
		r.attempted++
		if err := r.w.finish(); err != nil {
			r.fail(err)
		}
		var err error
		if _, r.storeBytes, err = storeDigest(r.w.storeDir()); err != nil {
			return nil, err
		}
		if cfg.trace {
			base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-set%d", r.name, cfg.seed, set+1))
			if r.builds, err = writeTraces(r.tracedKit.col, base); err != nil {
				return nil, err
			}
		}
	}
	return runners, nil
}

// writeTraces writes the traced run's spans as JSONL and as a Chrome
// trace, and returns each build's layer times.
func writeTraces(col *obs.Collector, base string) ([]buildTimes, error) {
	var jsonl bytes.Buffer
	if err := col.WriteJSONL(&jsonl); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".jsonl", jsonl.Bytes(), 0o644); err != nil {
		return nil, err
	}
	trace, err := col.TraceJSON()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".trace.json", trace, 0o644); err != nil {
		return nil, err
	}
	spans, err := readSpans(jsonl.Bytes())
	if err != nil {
		return nil, err
	}
	return analyzeBuilds(spans), nil
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean is the mean of f over xs, 0 when xs is empty.
func mean[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += f(x)
	}
	return t / float64(len(xs))
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.wall) / 1e6
	}
	return out
}
