// Package prof is the SML-level execution profiler (DESIGN.md §4k):
// it merges the raw per-unit-execution profiles the interpreter's
// step-tick sampler produces (interp.UnitProfile) into one build-wide
// profile with symbolized function identities — unit, SML binding
// path, source line — and exports it three ways: an `irm-profile/1`
// JSON report, folded-stack text for flamegraphs, and a dependency-
// free pprof profile.proto encoding loadable by `go tool pprof`.
//
// Everything in a Profile is counted in interpreter steps and sample
// counts, never wall clock, and a Builder must be fed UnitProfiles in
// commit order: under those two rules the emitted bytes are identical
// at any -j, across daemon and local runs, for the same program —
// the same determinism contract the scheduler gives bins and explain
// records (DESIGN.md §4e, §4j).
//
// Concurrency: a Builder is confined to one goroutine (the build's
// committer). A Profile is immutable once built and may be read from
// any goroutine. Live is the one concurrency-safe type: a mutex-
// guarded holder handing the latest build's profile to HTTP handlers.
package prof

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// ReportSchema identifies the JSON report format.
const ReportSchema = "irm-profile/1"

// Func is one SML function's merged profile row.
type Func struct {
	// Unit is the compilation unit that owns the function.
	Unit string `json:"unit"`
	// ID is the function's DFS index within the unit's compiled term.
	ID int32 `json:"id"`
	// Name is the symbolized SML binding path: an exported binding
	// ("map", "Stack.push"), a synthesized child path ("map.<fn7>"
	// for an inner anonymous function), or "<unit>" for the unit's
	// top-level code.
	Name string `json:"name"`
	// Line is the 1-based source line of the binding (0 if unknown).
	Line int `json:"line,omitempty"`
	// Applies counts applications (exact, not sampled).
	Applies int64 `json:"applies"`
	// SelfSteps counts interpreter steps with this function innermost
	// (exact, not sampled).
	SelfSteps int64 `json:"self_steps"`
	// Allocs counts escaping activation frames (exact).
	Allocs int64 `json:"allocs"`
	// LeafSamples counts step-tick samples with this function at the
	// top of the activation chain.
	LeafSamples int64 `json:"leaf_samples"`
	// CumSamples counts samples with this function anywhere on the
	// chain.
	CumSamples int64 `json:"cum_samples"`
}

// Stack is one sampled activation chain: indexes into Profile.Funcs,
// outermost first, with its capture count.
type Stack struct {
	Frames []int `json:"frames"`
	Count  int64 `json:"count"`
}

// Profile is a build's merged, symbolized profile.
type Profile struct {
	// Period is the sampling period in interpreter steps.
	Period uint64
	// Units is how many unit executions contributed.
	Units int
	// TotalSteps sums the profiled executions' steps.
	TotalSteps uint64
	// TotalSamples sums all stack captures.
	TotalSamples int64
	// Funcs is sorted hottest-first (SelfSteps, then Applies, then
	// unit/ID for determinism).
	Funcs []Func
	// Stacks is sorted by count (descending), then by frame path.
	Stacks []Stack
}

// Top returns the hottest n functions (all of them if n <= 0 or past
// the end).
func (p *Profile) Top(n int) []Func {
	if n <= 0 || n > len(p.Funcs) {
		n = len(p.Funcs)
	}
	return p.Funcs[:n]
}

// Builder accumulates unit profiles in commit order and symbolizes
// units as they commit.
type Builder struct {
	period  uint64
	units   int
	steps   uint64
	samples int64
	syms    map[string][]sym
	counts  map[interp.ProfFn]*acc
	stacks  map[string]*stackAgg
}

type acc struct {
	applies, selfSteps, allocs int64
	leaf, cum                  int64
}

type stackAgg struct {
	frames []interp.ProfFn
	count  int64
}

// NewBuilder returns a builder for one build under the given sampling
// period.
func NewBuilder(period uint64) *Builder {
	return &Builder{
		period: period,
		syms:   make(map[string][]sym),
		counts: make(map[interp.ProfFn]*acc),
		stacks: make(map[string]*stackAgg),
	}
}

// AddUnit symbolizes one unit — the function IDs of its program get
// SML binding-path names from its term and export environment, and
// source lines from the unit source — so the functions appearing in
// subsequent (or prior) samples resolve to readable rows. Idempotent
// per unit name.
func (b *Builder) AddUnit(u *compiler.Unit, source string) {
	if _, done := b.syms[u.Name]; done {
		return
	}
	b.syms[u.Name] = symbolizeUnit(u.Term(), u.Prog, u.Env, source)
}

// Add merges one unit execution's raw profile. Call in commit order.
func (b *Builder) Add(up *interp.UnitProfile) {
	if up == nil {
		return
	}
	b.units++
	b.steps += up.Steps
	for _, fc := range up.Funcs {
		a := b.accFor(fc.Fn)
		a.applies += fc.Applies
		a.selfSteps += fc.SelfSteps
		a.allocs += fc.Allocs
	}
	for _, st := range up.Stacks {
		b.samples += st.Count
		key := stackKey(st.Frames)
		agg := b.stacks[key]
		if agg == nil {
			agg = &stackAgg{frames: st.Frames}
			b.stacks[key] = agg
		}
		agg.count += st.Count
		b.accFor(st.Frames[len(st.Frames)-1]).leaf += st.Count
		seen := make(map[interp.ProfFn]bool, len(st.Frames))
		for _, f := range st.Frames {
			if !seen[f] {
				seen[f] = true
				b.accFor(f).cum += st.Count
			}
		}
	}
}

func (b *Builder) accFor(f interp.ProfFn) *acc {
	a := b.counts[f]
	if a == nil {
		a = &acc{}
		b.counts[f] = a
	}
	return a
}

func stackKey(frames []interp.ProfFn) string {
	var buf []byte
	for _, f := range frames {
		buf = append(buf, f.Unit...)
		buf = append(buf, 0x1f)
		buf = strconv.AppendInt(buf, int64(f.ID), 10)
		buf = append(buf, 0x1e)
	}
	return string(buf)
}

// Finish produces the merged, sorted, symbolized profile.
func (b *Builder) Finish() *Profile {
	p := &Profile{
		Period:       b.period,
		Units:        b.units,
		TotalSteps:   b.steps,
		TotalSamples: b.samples,
	}
	keys := make([]interp.ProfFn, 0, len(b.counts))
	for f := range b.counts {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Unit != keys[j].Unit {
			return keys[i].Unit < keys[j].Unit
		}
		return keys[i].ID < keys[j].ID
	})
	index := make(map[interp.ProfFn]int, len(keys))
	for _, f := range keys {
		a := b.counts[f]
		name, line := b.nameOf(f)
		index[f] = len(p.Funcs)
		p.Funcs = append(p.Funcs, Func{
			Unit:        f.Unit,
			ID:          f.ID,
			Name:        name,
			Line:        line,
			Applies:     a.applies,
			SelfSteps:   a.selfSteps,
			Allocs:      a.allocs,
			LeafSamples: a.leaf,
			CumSamples:  a.cum,
		})
	}
	// Hottest-first, with a total tie-break so the order is a pure
	// function of the profile's content.
	sort.SliceStable(p.Funcs, func(i, j int) bool {
		a, c := &p.Funcs[i], &p.Funcs[j]
		if a.SelfSteps != c.SelfSteps {
			return a.SelfSteps > c.SelfSteps
		}
		if a.Applies != c.Applies {
			return a.Applies > c.Applies
		}
		if a.Unit != c.Unit {
			return a.Unit < c.Unit
		}
		return a.ID < c.ID
	})
	// Re-index after the sort.
	for i, f := range p.Funcs {
		index[interp.ProfFn{Unit: f.Unit, ID: f.ID}] = i
	}
	skeys := make([]string, 0, len(b.stacks))
	for k := range b.stacks {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	for _, k := range skeys {
		agg := b.stacks[k]
		frames := make([]int, len(agg.frames))
		for i, f := range agg.frames {
			frames[i] = index[f]
		}
		p.Stacks = append(p.Stacks, Stack{Frames: frames, Count: agg.count})
	}
	sort.SliceStable(p.Stacks, func(i, j int) bool {
		if p.Stacks[i].Count != p.Stacks[j].Count {
			return p.Stacks[i].Count > p.Stacks[j].Count
		}
		return lessInts(p.Stacks[i].Frames, p.Stacks[j].Frames)
	})
	return p
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// nameOf resolves a function's display name and line: its symbolized
// binding path when the unit was symbolized, else a positional
// placeholder. Unnamed functions inherit the nearest named ancestor's
// path with a positional suffix; that resolution happened at
// symbolization time, so here it is a table lookup.
func (b *Builder) nameOf(f interp.ProfFn) (string, int) {
	tab := b.syms[f.Unit]
	if int(f.ID) < len(tab) {
		return tab[f.ID].name, tab[f.ID].line
	}
	return fmt.Sprintf("<fn%d>", f.ID), 0
}

// Live hands the most recent build's profile to HTTP handlers.
type Live struct {
	mu   sync.RWMutex
	name string
	p    *Profile
}

// Set publishes a build's profile (nil clears).
func (l *Live) Set(name string, p *Profile) {
	l.mu.Lock()
	l.name, l.p = name, p
	l.mu.Unlock()
}

// Get returns the published build name and profile (nil when none).
func (l *Live) Get() (string, *Profile) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.name, l.p
}
