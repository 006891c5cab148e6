package interp

// The machine half of the SML-level execution profiler (DESIGN.md
// §4k): per-function apply/step/alloc accounting plus deterministic
// step-tick sampling of the activation chain. Everything here counts
// in interpreter steps — never wall clock — and all per-run state is
// per-unit-execution (reset by BeginUnitProfile) or per-fork (reset by
// Fork), so the same program produces the same samples at any -j,
// locally or under the daemon. The
// internal/prof package symbolizes and merges the raw UnitProfiles
// this file produces.

import (
	"sort"
	"strconv"
)

// DefaultProfilePeriod is the step-sampling period used when a caller
// enables profiling without choosing one: one activation-chain capture
// every this many interpreter steps.
const DefaultProfilePeriod = 256

// ProfFn identifies one SML function for the profiler: the unit that
// owns it and its DFS index within the unit's compiled term (see
// CompiledFn.ID).
type ProfFn struct {
	Unit string `json:"unit"`
	ID   int32  `json:"id"`
}

// ProfFnCount is one function's exact (unsampled) accounting within a
// unit execution.
type ProfFnCount struct {
	Fn ProfFn `json:"fn"`
	// Applies counts applications of the function.
	Applies int64 `json:"applies"`
	// SelfSteps counts interpreter steps taken while the function was
	// the innermost profiled activation.
	SelfSteps int64 `json:"self_steps"`
	// Allocs counts escaping activation frames: applications whose
	// frame outlives the call because a closure captures it (the term
	// shape determines escape). A join point builds no closure, so a
	// function whose only captures were join points counts none.
	Allocs int64 `json:"allocs"`
}

// ProfStack is one sampled activation chain, outermost frame first,
// with the number of times the sampler captured exactly this chain.
type ProfStack struct {
	Frames []ProfFn `json:"frames"`
	Count  int64    `json:"count"`
}

// UnitProfile is the raw profile of one unit execution: exact per-
// function counts plus the step-tick samples, everything sorted
// deterministically. The scheduler ships it from the exec fork to the
// committer, which merges UnitProfiles in commit order.
type UnitProfile struct {
	Unit   string
	Period uint64
	Steps  uint64
	Funcs  []ProfFnCount
	Stacks []ProfStack
}

// Samples returns the total number of captured samples.
func (u *UnitProfile) Samples() int64 {
	var n int64
	for _, s := range u.Stacks {
		n += s.Count
	}
	return n
}

// profFrame is one entry of the profiler's shadow stack: the function
// whose activation is innermost, with its counts row cached so the
// per-step attribution is one pointer chase.
type profFrame struct {
	fn     *CompiledFn
	counts *profCounts
}

type profCounts struct {
	applies   int64
	selfSteps int64
	allocs    int64
}

// unitAcc accumulates one unit execution's profile.
type unitAcc struct {
	name   string
	steps  uint64
	funcs  map[*CompiledFn]*profCounts
	stacks map[string]*stackRec
	keybuf []byte
}

type stackRec struct {
	frames []ProfFn
	count  int64
}

func (a *unitAcc) countsFor(cf *CompiledFn) *profCounts {
	c := a.funcs[cf]
	if c == nil {
		c = &profCounts{}
		a.funcs[cf] = c
	}
	return c
}

// machProf is a machine's profiling state. period/left drive the
// deterministic sampler: left counts down once per interpreter step
// and a capture fires when it reaches zero. All of it is private to
// the machine (one goroutine).
type machProf struct {
	period uint64
	left   uint64
	cur    *unitAcc
	stack  []profFrame
	done   []*UnitProfile
}

// StartProfile enables SML-level profiling on this machine with the
// given step-sampling period (0 means DefaultProfilePeriod). Forks
// created afterwards inherit the enablement (with fresh per-fork
// state). Profiling changes no observable outputs — values, output,
// counters other than prof.*, bins, and pids are untouched — but
// disables frame pooling while enabled, trading speed for exact
// allocation attribution.
func (m *Machine) StartProfile(period uint64) {
	if period == 0 {
		period = DefaultProfilePeriod
	}
	m.prof = &machProf{period: period, left: period}
}

// ProfileEnabled reports whether StartProfile was called.
func (m *Machine) ProfileEnabled() bool { return m.prof != nil }

// ProfilePeriod returns the active sampling period (0 when disabled).
func (m *Machine) ProfilePeriod() uint64 {
	if m.prof == nil {
		return 0
	}
	return m.prof.period
}

// BeginUnitProfile opens a unit's sample window: a fresh accumulator
// and a countdown reset to the period, so the window's samples depend
// only on the unit's own execution.
func (m *Machine) BeginUnitProfile(unit string) {
	if m.prof == nil {
		return
	}
	m.prof.cur = &unitAcc{
		name:   unit,
		funcs:  make(map[*CompiledFn]*profCounts),
		stacks: make(map[string]*stackRec),
	}
	m.prof.left = m.prof.period
}

// EndUnitProfile closes the current window, appending its flattened
// UnitProfile to the machine's pending list (drained by
// TakeUnitProfiles) and returning it. Nil when no window was open.
func (m *Machine) EndUnitProfile() *UnitProfile {
	if m.prof == nil || m.prof.cur == nil {
		return nil
	}
	up := m.prof.cur.flatten(m.prof.period)
	m.prof.cur = nil
	m.prof.stack = m.prof.stack[:0]
	m.prof.done = append(m.prof.done, up)
	return up
}

// TakeUnitProfiles returns and clears the machine's pending unit
// profiles, in execution order.
func (m *Machine) TakeUnitProfiles() []*UnitProfile {
	if m.prof == nil {
		return nil
	}
	ups := m.prof.done
	m.prof.done = nil
	return ups
}

// tick is the per-step hook (called from Machine.step when profiling
// is enabled): attribute the step to the innermost activation and
// fire a capture every period steps.
func (p *machProf) tick() {
	a := p.cur
	if a == nil {
		return
	}
	a.steps++
	if n := len(p.stack); n > 0 {
		p.stack[n-1].counts.selfSteps++
	}
	p.left--
	if p.left == 0 {
		p.left = p.period
		p.capture()
	}
}

// capture records the current activation chain into the window.
func (p *machProf) capture() {
	a := p.cur
	if len(p.stack) == 0 {
		return
	}
	buf := a.keybuf[:0]
	for _, f := range p.stack {
		buf = append(buf, f.fn.tab.unit...)
		buf = append(buf, 0x1f)
		buf = strconv.AppendInt(buf, int64(f.fn.ID), 10)
		buf = append(buf, 0x1e)
	}
	a.keybuf = buf
	rec := a.stacks[string(buf)]
	if rec == nil {
		frames := make([]ProfFn, len(p.stack))
		for i, f := range p.stack {
			frames[i] = ProfFn{Unit: f.fn.tab.unit, ID: f.fn.ID}
		}
		rec = &stackRec{frames: frames}
		a.stacks[string(buf)] = rec
	}
	rec.count++
}

func (p *machProf) push(cf *CompiledFn) {
	c := p.cur.countsFor(cf)
	c.applies++
	if cf.escapes {
		c.allocs++
	}
	p.stack = append(p.stack, profFrame{fn: cf, counts: c})
}

func (p *machProf) pop() {
	p.stack = p.stack[:len(p.stack)-1]
}

// callProf is Machine.callFn with profiling on — the one branch the
// disabled fast path pays for is the nil check in callFn itself. It
// runs tail calls in the same loop: the callee's step is counted while
// the caller is still innermost, and then the callee's shadow frame
// replaces the caller's, so a sampled stack leaves out the frames tail
// calls elide. The shadow-stack pop rides a defer so an ML exception
// unwinding through the application (an *MLRaise panic en route to its
// handler) leaves the stack balanced. Frame pooling is skipped: every
// application allocates its frame, making the alloc attribution exact
// and the machine's behavior independent of pool state.
func (m *Machine) callProf(cf *CompiledFn, env *Frame, arg, lent Value) Value {
	p := m.prof
	pushed := false
	defer func() {
		if pushed {
			p.pop()
		}
	}()
	for {
		if p.cur != nil && cf.tab != nil {
			p.push(cf)
			pushed = true
		}
		fr := newFrame(env, int(cf.NSlots))
		fr.slots[0] = arg
		v := cf.code(m)(m, fr)
		if lent != nil {
			m.giveBack(lent)
		}
		t, ok := v.(*tailCall)
		if !ok {
			return v
		}
		cf, env, arg, lent = t.fn, t.env, t.arg, t.lent
		*t = tailCall{}
		m.step()
		if pushed {
			p.pop()
			pushed = false
		}
	}
}

// flatten turns the accumulator's maps into the sorted, value-keyed
// UnitProfile the committer merges: functions by (unit, ID), stacks by
// their frame encoding — orders independent of map iteration and of
// pointer identity, hence of -j and of process.
func (a *unitAcc) flatten(period uint64) *UnitProfile {
	up := &UnitProfile{Unit: a.name, Period: period, Steps: a.steps}
	for cf, c := range a.funcs {
		up.Funcs = append(up.Funcs, ProfFnCount{
			Fn:        ProfFn{Unit: cf.tab.unit, ID: cf.ID},
			Applies:   c.applies,
			SelfSteps: c.selfSteps,
			Allocs:    c.allocs,
		})
	}
	sort.Slice(up.Funcs, func(i, j int) bool {
		return lessProfFn(up.Funcs[i].Fn, up.Funcs[j].Fn)
	})
	keys := make([]string, 0, len(a.stacks))
	for k := range a.stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec := a.stacks[k]
		up.Stacks = append(up.Stacks, ProfStack{Frames: rec.frames, Count: rec.count})
	}
	return up
}

func lessProfFn(a, b ProfFn) bool {
	if a.Unit != b.Unit {
		return a.Unit < b.Unit
	}
	return a.ID < b.ID
}
