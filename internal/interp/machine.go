package interp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

// MLRaise is the panic payload used internally to unwind a raised ML
// exception to the nearest handler.
type MLRaise struct{ Packet *ExnV }

// UncaughtError is returned by Apply when the program raises an exception
// with no handler.
type UncaughtError struct{ Packet *ExnV }

func (e *UncaughtError) Error() string {
	return "uncaught exception " + String(Value(e.Packet))
}

// CrashError is returned when evaluation hits an internal inconsistency
// (which the type system should make unreachable).
type CrashError struct{ Msg string }

func (e *CrashError) Error() string { return "runtime crash: " + e.Msg }

// Machine evaluates lambda terms. Its Builtins table carries the
// runtime identities of the basis exceptions; Stdout receives print
// output. A Machine is safe to reuse across units; it is not safe for
// concurrent evaluation.
type Machine struct {
	Stdout   io.Writer
	builtins map[string]Value
	// Steps counts evaluation steps, for tests that bound divergence.
	Steps    uint64
	MaxSteps uint64 // 0 = unlimited
	// Obs, when non-nil, receives the interp.* counters (applies,
	// uncaught, crashes). Counting happens only at the top-level Apply
	// entry and exit points — once per unit execution, never inside
	// the evaluation loop — so an observed machine pays nothing on the
	// hot path.
	Obs obs.Recorder
	// pool recycles what a call is done with when it returns, made on
	// first use. Per-machine, like the machine itself: never shared
	// across goroutines. Fork starts without one; HandOff passes a
	// finished machine's pool to the next fork on the same goroutine.
	pool *pools
	// prof, when non-nil, is the SML-level execution profiler's state
	// (prof.go). The disabled fast path costs exactly one nil check in
	// step and one in apply; Fork propagates enablement with fresh
	// per-fork state.
	prof *machProf
	// tc is the call in tail position a body has just returned, which
	// the trampoline of the callFn running the body makes next
	// (tailCall).
	tc tailCall

	// Pre-allocated basis exception tags.
	TagMatch, TagBind, TagDiv, TagOverflow *ExnTag
	TagSubscript, TagSize, TagChr, TagFail *ExnTag
}

// NewMachine returns a machine with the built-in exception tags
// allocated and output directed to os.Stdout.
func NewMachine() *Machine {
	m := &Machine{
		Stdout:       os.Stdout,
		TagMatch:     &ExnTag{Name: "Match"},
		TagBind:      &ExnTag{Name: "Bind"},
		TagDiv:       &ExnTag{Name: "Div"},
		TagOverflow:  &ExnTag{Name: "Overflow"},
		TagSubscript: &ExnTag{Name: "Subscript"},
		TagSize:      &ExnTag{Name: "Size"},
		TagChr:       &ExnTag{Name: "Chr"},
		TagFail:      &ExnTag{Name: "Fail"},
	}
	m.builtins = map[string]Value{
		"Match":     m.TagMatch,
		"Bind":      m.TagBind,
		"Div":       m.TagDiv,
		"Overflow":  m.TagOverflow,
		"Subscript": m.TagSubscript,
		"Size":      m.TagSize,
		"Chr":       m.TagChr,
		"Fail":      m.TagFail,
	}
	return m
}

func (m *Machine) raise(tag *ExnTag, arg Value) Value {
	panic(&MLRaise{Packet: &ExnV{Tag: tag, Arg: arg}})
}

func (m *Machine) crash(format string, args ...any) Value {
	panic(&CrashError{Msg: fmt.Sprintf(format, args...)})
}

// Apply applies a function value to an argument with top-level error
// conversion, for host callers (the Visible Compiler API).
func (m *Machine) Apply(fn, arg Value) (v Value, err error) {
	obs.Count(m.Obs, "interp.applies", 1)
	defer m.convert(&err)
	return m.apply(fn, arg), nil
}

// convert is the shared top-level recover: ML exceptions that unwound
// to the host boundary become *UncaughtError, internal inconsistencies
// *CrashError; anything else keeps panicking. Both outcomes are
// counted, so the execute phase's failure modes show up in /metrics.
func (m *Machine) convert(err *error) {
	if r := recover(); r != nil {
		switch r := r.(type) {
		case *MLRaise:
			obs.Count(m.Obs, "interp.uncaught", 1)
			*err = &UncaughtError{Packet: r.Packet}
		case *CrashError:
			obs.Count(m.Obs, "interp.crashes", 1)
			*err = r
		default:
			panic(r)
		}
	}
}

func (m *Machine) step() {
	m.Steps++
	if m.MaxSteps != 0 && m.Steps > m.MaxSteps {
		m.crash("step budget exceeded (%d)", m.MaxSteps)
	}
	if m.prof != nil {
		m.prof.tick()
	}
}

// apply applies a function value to an argument.
func (m *Machine) apply(fn, arg Value) Value {
	if c, ok := fn.(*CompiledClosure); ok {
		return m.callFn(c.Fn, c.Env, arg)
	}
	return m.crash("application of non-function %s", String(fn))
}

// tailApply is apply in tail position: it hands the call to the
// trampoline (tailCall) instead of making it.
func (m *Machine) tailApply(fn, arg Value) Value {
	if c, ok := fn.(*CompiledClosure); ok {
		return m.tailCall(c.Fn, c.Env, arg, nil, 0)
	}
	return m.crash("application of non-function %s", String(fn))
}

// tailCall is a call a body makes in tail position (DESIGN.md §4j,
// "Tail calls"): the body returns the machine's one tailCall, and the
// callFn running that body makes the call in its trampoline's loop, so
// a tail call grows no Go stack. lent is the tuple lent to fn, which
// goes back to the pool when fn's body returns; held counts the pooled
// frames above env (a saturated chain's curried levels) that go back
// then too.
type tailCall struct {
	fn   *CompiledFn
	env  *Frame
	arg  Value
	lent Value
	held int
}

func (*tailCall) isValue() {}

// tailCall records a call in tail position and returns the value that
// tells the trampoline to make it.
func (m *Machine) tailCall(fn *CompiledFn, env *Frame, arg, lent Value, held int) Value {
	m.tc = tailCall{fn: fn, env: env, arg: arg, lent: lent, held: held}
	return &m.tc
}

// callFn runs cf on arg in a frame whose parent is env: the one call
// path of the compiled engine, shared by apply, join calls and the
// calls of curried chains and lent tuples (enter). It counts one step
// per application, so MaxSteps still bounds divergence — any infinite
// loop in the lambda language recurses through callFn, or loops in
// trampoline. A call whose body does not return a tail call, the
// common case, is done here; trampoline finishes the others. Neither
// path keeps cf live across the body, so the common one saves and
// restores only m and fr around it.
func (m *Machine) callFn(cf *CompiledFn, env *Frame, arg Value) Value {
	m.step()
	if m.prof != nil {
		return m.callProf(cf, env, arg, nil)
	}
	if cf.escapes {
		fr := newFrame(env, int(cf.NSlots))
		fr.slots[0] = arg
		v := cf.code(m)(m, fr)
		if _, tail := v.(*tailCall); tail {
			return m.trampoline(fr, false, v, nil, 0)
		}
		return v
	}
	fr := m.getFrame(env, int(cf.NSlots))
	fr.slots[0] = arg
	v := cf.code(m)(m, fr)
	if _, tail := v.(*tailCall); tail {
		return m.trampoline(fr, true, v, nil, 0)
	}
	m.putFrames(fr, 1)
	return v
}

// enter is callFn for a call with a tuple to give back or frames to
// release when cf's body returns: lent and held are as in tailCall.
func (m *Machine) enter(cf *CompiledFn, env *Frame, arg, lent Value, held int) Value {
	m.step()
	if m.prof != nil {
		return m.callProf(cf, env, arg, lent)
	}
	fr := m.frameOf(cf, env, arg)
	v := cf.code(m)(m, fr)
	return m.trampoline(fr, !cf.escapes, v, lent, held)
}

// trampoline finishes a call whose body returned v in frame fr, which
// is pooled unless it escapes: while v is a tail call, it makes that
// call in the same Go frame, counting its step exactly where the call
// would have, so a tail loop grows no Go stack. lent and held are as
// in tailCall, for fr's activation.
//
// A pooled frame goes back when its body returns, before a tail call
// takes the callee's frame — unless the tail call is a join call,
// whose callee runs under this very frame: then the frame is held
// until the join's body returns, with the frames held above it. Only a
// pooled frame holds any: a join's frame escapes only if its binding
// frame does, and a chain pools its levels only when its callee does
// not escape. An exception unwinding past the call skips the release;
// the frames are then simply collected like any other.
func (m *Machine) trampoline(fr *Frame, pooled bool, v, lent Value, held int) Value {
	for {
		if lent != nil {
			m.giveBack(lent)
		}
		t, ok := v.(*tailCall)
		switch {
		case !ok:
			if pooled {
				m.putFrames(fr, held+1)
			}
			return v
		case t.env == fr:
			if pooled {
				held++
			}
		default:
			if pooled {
				m.putFrames(fr, held+1)
			}
			held = t.held
		}
		cf, env, arg := t.fn, t.env, t.arg
		lent = t.lent
		*t = tailCall{}
		m.step()
		fr, pooled = m.frameOf(cf, env, arg), !cf.escapes
		v = cf.code(m)(m, fr)
	}
}

// frameOf returns cf's activation frame under env, with arg in slot 0:
// from the pool unless the frame escapes.
func (m *Machine) frameOf(cf *CompiledFn, env *Frame, arg Value) *Frame {
	var fr *Frame
	if cf.escapes {
		fr = newFrame(env, int(cf.NSlots))
	} else {
		fr = m.getFrame(env, int(cf.NSlots))
	}
	fr.slots[0] = arg
	return fr
}

// applyChain applies f to the values of args in turn, as the nested
// applications f a1 ... ak would; in tail position (tail) it makes the
// last application a tail call. When f is a compiled closure of a
// curried function (CompiledFn.inner), each level the chain saturates
// is entered without building the closure it would return: the level's
// step is counted and its argument written to a frame that becomes the
// next level's parent, in the original order of steps and argument
// evaluations. Those frames come from the pool only when the final
// callee's frame does not escape — then nothing can capture them — and
// go back when that callee's body returns (tailCall.held). Anything
// else, and every profiled call, takes plain apply.
func (m *Machine) applyChain(f Value, fr *Frame, args []cnode, tail bool) Value {
	c, ok := f.(*CompiledClosure)
	if !ok || m.prof != nil {
		last := len(args) - 1
		for _, a := range args[:last] {
			f = m.apply(f, a(m, fr))
		}
		if tail {
			return m.tailApply(f, args[last](m, fr))
		}
		return m.apply(f, args[last](m, fr))
	}
	cf, env := c.Fn, c.Env
	n, last := 0, cf
	for n < len(args)-1 && last.inner != nil {
		n, last = n+1, last.inner
	}
	pooled := !last.escapes
	arg := args[0](m, fr)
	for i := 1; i <= n; i++ {
		m.step()
		var w *Frame
		if pooled {
			w = m.getFrame(env, int(cf.NSlots))
		} else {
			w = newFrame(env, int(cf.NSlots))
		}
		w.slots[0] = arg
		env, cf = w, cf.inner
		arg = args[i](m, fr)
	}
	held := 0
	if pooled {
		held = n
	}
	rest := args[n+1:]
	if tail && len(rest) == 0 {
		return m.tailCall(cf, env, arg, nil, held)
	}
	v := m.enter(cf, env, arg, nil, held)
	for i, a := range rest {
		if tail && i == len(rest)-1 {
			return m.tailApply(v, a(m, fr))
		}
		v = m.apply(v, a(m, fr))
	}
	return v
}

// pools holds a machine's recycled frames and tuples: the frames of
// non-escaping activations (CompiledFn.escapes) and of saturated
// curried calls (applyChain), the tuples lent to borrowing callees
// (lend), and the open-frame stack a first call builds a body under
// (CompiledFn.force), which builds no other body meanwhile.
type pools struct {
	frames  []*Frame
	pairs   []*tuple2
	triples []*tuple3
	open    []openFrame
}

// pools returns the machine's pools, making them on first use.
func (m *Machine) pools() *pools {
	if m.pool == nil {
		m.pool = new(pools)
	}
	return m.pool
}

// lend calls c with the n-field tuple fill writes, in a tuple from the
// pool that goes back, cleared, when c's body returns (tailCall.lent):
// c borrows (CompiledFn.borrows), so nothing can hold the tuple by
// then. In tail position (tail) the call is a tail call, and the tuple
// goes back when the body of the call the trampoline makes returns. An
// exception unwinding past the call skips the return, as it skips a
// frame's in callFn; the tuple is then simply collected.
func (m *Machine) lend(c *CompiledClosure, fr *Frame, fill filler, n int, tail bool) Value {
	p := m.pools()
	var t Value
	if n == 2 {
		pair := take(&p.pairs)
		fill(m, fr, pair[:])
		t = pair
	} else {
		triple := take(&p.triples)
		fill(m, fr, triple[:])
		t = triple
	}
	if tail {
		return m.tailCall(c.Fn, c.Env, t, t, 0)
	}
	return m.enter(c.Fn, c.Env, t, t, 0)
}

// giveBack returns a tuple lend took to the pool.
func (m *Machine) giveBack(t Value) {
	p := m.pools()
	switch t := t.(type) {
	case *tuple2:
		give(&p.pairs, t)
	case *tuple3:
		give(&p.triples, t)
	}
}

// take returns a tuple from pool, or a new one when it is empty.
func take[T tuple2 | tuple3](pool *[]*T) *T {
	k := len(*pool)
	if k == 0 {
		return new(T)
	}
	t := (*pool)[k-1]
	*pool = (*pool)[:k-1]
	return t
}

// give clears t and returns it to pool.
func give[T tuple2 | tuple3](pool *[]*T, t *T) {
	var zero T
	*t = zero
	*pool = append(*pool, t)
}

// getFrame returns an n-slot frame under up, from the pool when it has
// one. Slots are cleared on release, never on reuse — a slot read is
// always dominated by a write in the same activation (binders dominate
// uses), so stale values are unreachable and only need dropping for
// the collector's sake.
func (m *Machine) getFrame(up *Frame, n int) *Frame {
	p := m.pools()
	k := len(p.frames)
	if k == 0 {
		return newFrame(up, n)
	}
	fr := p.frames[k-1]
	p.frames = p.frames[:k-1]
	fr.up = up
	if n <= cap(fr.slots) {
		fr.slots = fr.slots[:n]
	} else {
		fr.slots = make([]Value, n)
	}
	return fr
}

// putFrames returns fr and the n-1 frames above it, which nothing
// references any more, to the pool.
func (m *Machine) putFrames(fr *Frame, n int) {
	p := m.pools()
	for ; n > 0; n-- {
		up := fr.up
		fr.up = nil
		clear(fr.slots)
		p.frames = append(p.frames, fr)
		fr = up
	}
}
