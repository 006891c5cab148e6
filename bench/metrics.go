package main

import "slices"

// metric is one reported number: its name and unit as BENCHMARK.json
// lists them, and how a finished run computes it.
type metric struct {
	name, unit string
	value      func(r *runner) float64
}

// e2eMetrics are what a user of the build system sees, measured with
// the benchmark's own tracing off. Build latency is not among them: on
// a shared 2-core machine it does not repeat within a tenth from run to
// run, so it is reported with the per-layer metrics instead.
var e2eMetrics = []metric{
	{"setup_s", "s", func(r *runner) float64 { return quantile(r.setups, 0.5) }},
	{"allocs_per_build", "count", func(r *runner) float64 {
		return mean(r.e2e, func(s sample) float64 { return float64(s.allocs) })
	}},
	{"alloc_mb_per_build", "MB", func(r *runner) float64 {
		return mean(r.e2e, func(s sample) float64 { return float64(s.bytes) / 1e6 })
	}},
	{"store_kb", "KiB", func(r *runner) float64 { return float64(r.storeBytes) / 1024 }},
}

// selfMs is the mean per build of a phase's self time.
func selfMs(phase string) func(r *runner) float64 {
	return func(r *runner) float64 {
		return mean(r.builds, func(b buildTimes) float64 { return b.self[phase] / 1e3 })
	}
}

// counter is the mean per build of one of the program's counters.
func counter(name string, scale float64) func(r *runner) float64 {
	return func(r *runner) float64 {
		return mean(r.traced, func(s sample) float64 { return float64(s.counters[name]) * scale })
	}
}

// ioMs and ioCalls are means per build of a decorator's timings.
func ioMs(pick func(*ioStats) *tally) func(r *runner) float64 {
	return func(r *runner) float64 {
		return mean(r.traced, func(s sample) float64 { return pick(s.io).ms() })
	}
}

func ioCalls(pick func(*ioStats) *tally) func(r *runner) float64 {
	return func(r *runner) float64 {
		return mean(r.traced, func(s sample) float64 { return float64(pick(s.io).calls.Load()) })
	}
}

const nsToMs = 1e-6

// latencyMetrics are the Build latency of the untraced run.
var latencyMetrics = []metric{
	{"build_p50_ms", "ms", func(r *runner) float64 { return quantile(walls(r.e2e), 0.5) }},
	{"build_p90_ms", "ms", func(r *runner) float64 { return quantile(walls(r.e2e), 0.9) }},
	{"builds_per_s", "1/s", func(r *runner) float64 {
		busy := 0.0
		for _, s := range r.e2e {
			busy += s.wall.Seconds()
		}
		if busy == 0 {
			return 0
		}
		return float64(len(r.e2e)) / busy
	}},
	{"cpu_ms_per_build", "ms", func(r *runner) float64 {
		return mean(r.e2e, func(s sample) float64 { return float64(s.cpu) / 1e6 })
	}},
}

// layerMetrics are reported by a run with tracing: the latency of its
// untraced part, then means per build of its traced part.
var layerMetrics = slices.Concat(latencyMetrics, []metric{
	{"core.lock_ms", "ms", selfMs("lock")},
	{"core.session_ms", "ms", selfMs("session")},
	{"core.scan_self_ms", "ms", selfMs("scan")},
	{"core.order_ms", "ms", selfMs("order")},
	{"core.sched_idle_ms", "ms", counter("build.sched.wait_ns", nsToMs)},
	{"core.parallelism_max", "count", counter("build.parallelism.max", 1)},
	{"core.exec_parallelism_max", "count", counter("exec.parallelism.max", 1)},
	{"core.exec_serialized", "count", counter("exec.serialized", 1)},
	{"core.recompiled", "count", counter("build.compiled", 1)},
	{"core.loaded", "count", counter("build.loaded", 1)},
	{"core.cutoffs", "count", counter("build.cutoffs", 1)},
	{"core.unattributed_ms", "ms", func(r *runner) float64 {
		return mean(r.builds, func(b buildTimes) float64 { return b.unattributed / 1e3 })
	}},
	{"core.store.load_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.storeLoad })},
	{"core.store.load_calls", "count", ioCalls(func(s *ioStats) *tally { return &s.storeLoad })},
	{"core.store.save_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.storeSave })},
	{"core.store.save_calls", "count", ioCalls(func(s *ioStats) *tally { return &s.storeSave })},
	{"core.store.bytes_written", "B", counter("store.bytes_written", 1)},
	{"core.fs.read_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.read })},
	{"core.fs.write_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.write })},
	{"core.fs.fsync_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.fsync })},
	{"core.fs.rename_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.rename })},
	{"core.fs.syncdir_ms", "ms", ioMs(func(s *ioStats) *tally { return &s.syncDir })},
	{"depend.parse_ms", "ms", selfMs("parse")},
	{"compiler.compile_ms", "ms", selfMs("compile")},
	{"compiler.hash_ms", "ms", counter("time.hash_ns", nsToMs)},
	{"compiler.codegen_ms", "ms", counter("code.compile_ns", nsToMs)},
	{"compiler.execute_self_ms", "ms", selfMs("execute")},
	{"binfile.encode_ms", "ms", selfMs("pickle")},
	{"binfile.load_ms", "ms", selfMs("load")},
	{"binfile.bytes_read", "B", counter("binfile.bytes_read", 1)},
	{"pickle.env_cache_hit_rate", "ratio", func(r *runner) float64 {
		hits, misses := counter("cache.env_hits", 1)(r), counter("cache.env_misses", 1)(r)
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}},
	{"interp.apply_ms", "ms", selfMs("apply")},
	{"interp.steps", "count", counter("exec.steps", 1)},
	{"dynenv.imports_ms", "ms", selfMs("imports")},
	{"dynenv.bind_ms", "ms", selfMs("bind")},
	{"obs.trace_overhead_pct", "%", func(r *runner) float64 {
		e2e := quantile(walls(r.e2e), 0.5)
		if e2e == 0 {
			return 0
		}
		return 100 * (quantile(walls(r.traced), 0.5) - e2e) / e2e
	}},
})
