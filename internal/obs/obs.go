// Package obs is the IRM's telemetry layer: hierarchical spans,
// monotonic counters, and structured rebuild-decision ("explain")
// records, collected by a single Collector threaded through the
// compilation manager, the bin-file store, and the lock path.
//
// The paper's evaluation (§6) rests on *measured* claims — hash and
// pickle overhead stay small, cutoff keeps rebuilds proportional to
// the semantic change, not the dependency cone. This package makes
// those claims auditable on every build instead of reconstructable
// from ad-hoc timers:
//
//   - Spans form a build → unit → phase hierarchy (lock, scan, parse,
//     compile, pickle, load, execute, save, ...) and export as Chrome
//     trace_event JSON (chrome://tracing, Perfetto) or JSONL.
//   - Counters are named monotonic int64s (see DESIGN.md §4d for the
//     registry: cache.*, store.*, lock.*, binfile.*, time.*,
//     build.*). core.Stats is derived from per-build counter deltas,
//     so nothing is counted twice.
//   - Ending a phase span adds its duration to the counter
//     time.<name>_ns (PhaseCounter), so report, ledger and /metrics
//     read the trace's phase timings by construction.
//   - Explain records state, for every unit of every build, why it
//     was recompiled or reloaded, with the old and new interface
//     pids — the cutoff rule's behaviour as data.
//
// All Collector and Span methods are safe on nil receivers, so
// instrumented code never guards; a nil *Collector is a valid no-op
// sink.
//
// Concurrency: a Collector is safe for concurrent use — counter adds,
// span starts, and span ends may come from any worker goroutine, and
// all methods are also safe on a nil receiver. A Buffer is not
// synchronized: each scheduler worker owns one privately and the
// coordinator flushes it in commit order (see internal/core).
package obs

import (
	"sync"
	"time"
)

// Recorder is the narrow counting surface threaded through the
// storage layers (DirStore, the lockfile protocol, binfile): anything
// that can bump a named counter. *Collector implements it.
type Recorder interface {
	// Add increments the named counter by delta.
	Add(name string, delta int64)
}

// Count bumps a counter on a possibly-nil Recorder.
func Count(r Recorder, name string, delta int64) {
	if r != nil {
		r.Add(name, delta)
	}
}

// Span categories, used as the `cat` field of exported trace events.
const (
	CatBuild = "build" // one whole Manager.Build (or CLI run)
	CatUnit  = "unit"  // one compilation unit's turn within a build
	CatPhase = "phase" // one pipeline phase: parse/compile/pickle/...
)

// PhaseCounter names the counter that accumulates the durations of
// the phase spans called phase: "time.<phase>_ns".
func PhaseCounter(phase string) string { return "time." + phase + "_ns" }

// Collector accumulates spans, counters, and explain records. It is
// safe for concurrent use; one Collector typically serves one process
// (all builds of a CLI invocation share it).
type Collector struct {
	mu       sync.Mutex
	epoch    time.Time
	counters map[string]int64
	hists    map[string]*Histogram
	spans    []*Span
	explains []Explain
	builds   int
	lastID   int // the most recent span id; ids stay unique across Prune
	// phaseKeys interns PhaseCounter per phase name: End allocates nothing.
	phaseKeys map[string]string
}

// New returns an empty Collector whose trace timestamps are relative
// to now.
func New() *Collector {
	return &Collector{epoch: time.Now(), counters: map[string]int64{},
		phaseKeys: map[string]string{}}
}

// Add implements Recorder. Safe on nil.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Counters returns a snapshot copy of all counters.
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Since returns the counter deltas accumulated after `before` (a
// snapshot from Counters). Zero deltas are omitted.
func (c *Collector) Since(before map[string]int64) map[string]int64 {
	if c == nil {
		return nil
	}
	now := c.Counters()
	out := make(map[string]int64, len(now))
	for k, v := range now {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// SpanCounts reports how many spans have been opened and how many of
// them are closed — the audit surface for the fatal-path guarantee
// that a build, even an aborted one, never leaks an open span into
// its exported trace.
func (c *Collector) SpanCounts() (opened, closed int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	opened = len(c.spans)
	for _, s := range c.spans {
		if s.ended {
			closed++
		}
	}
	return opened, closed
}

// OpenSpans reports the number of spans started but not yet ended.
func (c *Collector) OpenSpans() int {
	opened, closed := c.SpanCounts()
	return opened - closed
}

// Builds reports how many build generations have begun on this
// collector.
func (c *Collector) Builds() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// BeginBuild opens a new build generation and returns its 1-based
// sequence number; explain records filed after this call are stamped
// with it.
func (c *Collector) BeginBuild() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.builds++
	return c.builds
}

// Explain files one rebuild-decision record.
func (c *Collector) Explain(e Explain) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.explains = append(c.explains, e)
	c.mu.Unlock()
}

// Explains returns a copy of every explain record filed so far, in
// order.
func (c *Collector) Explains() []Explain {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Explain(nil), c.explains...)
}

// BuildExplains returns the explain records of one build generation.
func (c *Collector) BuildExplains(build int) []Explain {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Explain
	for _, e := range c.explains {
		if e.Build == build {
			out = append(out, e)
		}
	}
	return out
}

// Prune discards every closed span and every explain record, keeping
// open spans, counters, histograms, and the build count. A long-lived
// process (irm watch, irm daemon) calls it after each build, once
// nothing will export that build's spans, so its collector holds at
// most one build's worth of them.
func (c *Collector) Prune() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var open []*Span
	for _, s := range c.spans {
		if !s.ended {
			open = append(open, s)
		}
	}
	c.spans = open
	c.explains = nil
}

// Span is one timed interval in the build → unit → phase hierarchy.
// Spans are created through StartSpan/Child, annotated with Arg, and
// closed with End; an unclosed span exports with its duration running
// to the export instant.
type Span struct {
	c      *Collector
	parent *Span

	id       int
	parentID int
	name     string
	cat      string
	lane     int
	args     map[string]any
	start    time.Time
	end      time.Time
	ended    bool
}

// StartSpan opens a root-level span.
func (c *Collector) StartSpan(cat, name string) *Span {
	return c.newSpan(nil, cat, name)
}

// Child opens a span nested under s.
func (s *Span) Child(cat, name string) *Span {
	if s == nil {
		return nil
	}
	return s.c.newSpan(s, cat, name)
}

func (c *Collector) newSpan(parent *Span, cat, name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{c: c, parent: parent, cat: cat, name: name, start: time.Now()}
	if parent != nil {
		s.parentID = parent.id
		s.lane = parent.lane
	}
	c.mu.Lock()
	c.lastID++
	s.id = c.lastID
	c.spans = append(c.spans, s)
	c.mu.Unlock()
	return s
}

// Lane assigns the span to a worker lane: lanes export as distinct
// trace-event thread ids (tid = lane+1), so a Perfetto view of a
// parallel build shows one track per scheduler worker instead of one
// flat track. Children created after the call inherit the lane; lane
// 0 (the default) is the coordinator track. Returns s for chaining;
// safe on nil.
func (s *Span) Lane(lane int) *Span {
	if s == nil {
		return nil
	}
	s.c.mu.Lock()
	s.lane = lane
	s.c.mu.Unlock()
	return s
}

// Arg attaches a key/value annotation (exported under trace-event
// `args`). Returns s for chaining; safe on nil.
func (s *Span) Arg(key string, v any) *Span {
	if s == nil {
		return nil
	}
	s.c.mu.Lock()
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = v
	s.c.mu.Unlock()
	return s
}

// End closes the span; a phase span's duration is added to its
// PhaseCounter. Second and later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = time.Now()
		if s.cat == CatPhase {
			key, ok := s.c.phaseKeys[s.name]
			if !ok {
				key = PhaseCounter(s.name)
				s.c.phaseKeys[s.name] = key
			}
			s.c.counters[key] += int64(s.end.Sub(s.start))
		}
	}
	s.c.mu.Unlock()
}

// Duration reports the span's length (to now if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}
