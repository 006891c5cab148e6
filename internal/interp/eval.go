package interp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/lambda"
	"repro/internal/obs"
)

// Env is the evaluation environment: an immutable linked list from
// lambda variables to values. Closures capture it by reference.
type Env struct {
	lv   lambda.LVar
	v    Value
	next *Env
}

// Bind extends the environment.
func (e *Env) Bind(lv lambda.LVar, v Value) *Env {
	return &Env{lv: lv, v: v, next: e}
}

// Lookup finds the value of lv.
func (e *Env) Lookup(lv lambda.LVar) (Value, bool) {
	for env := e; env != nil; env = env.next {
		if env.lv == lv {
			return env.v, true
		}
	}
	return nil, false
}

// MLRaise is the panic payload used internally to unwind a raised ML
// exception to the nearest handler.
type MLRaise struct{ Packet *ExnV }

// UncaughtError is returned by Eval when the program raises an exception
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
	// Obs, when non-nil, receives the interp.* counters (evals,
	// applies, uncaught, crashes). Counting happens only at the
	// top-level Eval/Apply entry and exit points — once per unit
	// execution, never inside the evaluation loop — so an observed
	// machine pays nothing on the hot path.
	Obs obs.Recorder
	// framePool recycles non-escaping activation frames (see
	// CompiledFn.escapes) and the frames of saturated curried calls
	// (applyChain). Per-machine, like the machine itself: never shared
	// across goroutines. Fork starts its copy empty; HandOff passes a
	// finished machine's pool to the next fork on the same goroutine.
	framePool []*Frame
	// prof, when non-nil, is the SML-level execution profiler's state
	// (prof.go). The disabled fast path costs exactly one nil check in
	// step and one in apply; Fork propagates enablement with fresh
	// per-fork state.
	prof *machProf

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

// Eval evaluates e under env with the tree walker, converting a
// raised-to-top exception into an *UncaughtError and internal crashes
// into *CrashError. Units execute in compiled form (compile.go); the
// tree walker is the reference implementation tests compare against.
func (m *Machine) Eval(e lambda.Exp, env *Env) (v Value, err error) {
	obs.Count(m.Obs, "interp.evals", 1)
	defer m.convert(&err)
	return m.eval(e, env), nil
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

func (m *Machine) eval(e lambda.Exp, env *Env) Value {
	m.step()
	switch e := e.(type) {
	case *lambda.Var:
		v, ok := env.Lookup(e.LV)
		if !ok {
			m.crash("unbound lambda variable v%d", e.LV)
		}
		return v
	case *lambda.Int:
		return IntV(e.Val)
	case *lambda.Word:
		return WordV(e.Val)
	case *lambda.Real:
		return RealV(e.Val)
	case *lambda.Str:
		return StrV(e.Val)
	case *lambda.Char:
		return CharV(e.Val)
	case *lambda.Record:
		r, vs := NewRecord(len(e.Fields))
		for i, f := range e.Fields {
			vs[i] = m.eval(f, env)
		}
		return r
	case *lambda.Select:
		rec := m.eval(e.Rec, env)
		r, ok := Fields(rec)
		if !ok || e.Idx >= len(r) {
			m.crash("select .%d from non-record %s", e.Idx, String(rec))
		}
		return r[e.Idx]
	case *lambda.Fn:
		return &Closure{Param: e.Param, Body: e.Body, Env: env}
	case *lambda.Fix:
		// Tie the knot: bind all names, then patch the closures' envs.
		newEnv := env
		closures := make([]*Closure, len(e.Fns))
		for i, fn := range e.Fns {
			c := &Closure{Param: fn.Param, Body: fn.Body}
			closures[i] = c
			newEnv = newEnv.Bind(e.Names[i], c)
		}
		for _, c := range closures {
			c.Env = newEnv
		}
		return m.eval(e.Body, newEnv)
	case *lambda.App:
		fn := m.eval(e.Fn, env)
		arg := m.eval(e.Arg, env)
		return m.apply(fn, arg)
	case *lambda.Let:
		v := m.eval(e.Bind, env)
		return m.eval(e.Body, env.Bind(e.LV, v))
	case *lambda.Con:
		c := &ConV{Tag: e.Tag, Name: e.Name}
		if e.Arg != nil {
			c.Arg = m.eval(e.Arg, env)
		}
		return c
	case *lambda.Decon:
		v := m.eval(e.Exp, env)
		c, ok := v.(*ConV)
		if !ok || c.Arg == nil {
			m.crash("decon of non-constructed value %s", String(v))
		}
		return c.Arg
	case *lambda.NewExnTag:
		return &ExnTag{Name: e.Name}
	case *lambda.ExnCon:
		tag := m.eval(e.Tag, env)
		t, ok := tag.(*ExnTag)
		if !ok {
			m.crash("exncon with non-tag %s", String(tag))
		}
		ev := &ExnV{Tag: t}
		if e.Arg != nil {
			ev.Arg = m.eval(e.Arg, env)
		}
		return ev
	case *lambda.ExnDecon:
		v := m.eval(e.Exp, env)
		ev, ok := v.(*ExnV)
		if !ok || ev.Arg == nil {
			m.crash("exndecon of %s", String(v))
		}
		return ev.Arg
	case *lambda.If:
		if Truth(m.eval(e.Cond, env)) {
			return m.eval(e.Then, env)
		}
		return m.eval(e.Else, env)
	case *lambda.Switch:
		return m.evalSwitch(e, env)
	case *lambda.Prim:
		p, err := primOf(e.Op, len(e.Args))
		if err != nil {
			m.crash("%v", err)
		}
		switch len(e.Args) {
		case 0:
			return p.f0(m)
		case 1:
			return p.f1(m, m.eval(e.Args[0], env))
		}
		a := m.eval(e.Args[0], env)
		return p.f2(m, a, m.eval(e.Args[1], env))
	case *lambda.Builtin:
		v, ok := m.builtins[e.Name]
		if !ok {
			m.crash("unknown builtin %q", e.Name)
		}
		return v
	case *lambda.Raise:
		v := m.eval(e.Exp, env)
		ev, ok := v.(*ExnV)
		if !ok {
			m.crash("raise of non-exception %s", String(v))
		}
		panic(&MLRaise{Packet: ev})
	case *lambda.Handle:
		return m.evalHandle(e, env)
	}
	return m.crash("unknown lambda node %T", e)
}

// evalHandle isolates the recover so that only the handled body's
// exceptions are caught.
func (m *Machine) evalHandle(e *lambda.Handle, env *Env) (result Value) {
	caught := func() (packet *ExnV) {
		defer func() {
			if r := recover(); r != nil {
				if mr, ok := r.(*MLRaise); ok {
					packet = mr.Packet
					return
				}
				panic(r)
			}
		}()
		result = m.eval(e.Body, env)
		return nil
	}()
	if caught == nil {
		return result
	}
	return m.eval(e.Handler, env.Bind(e.Param, caught))
}

// apply dispatches on the closure form, so tree-built and compiled
// values interoperate in either direction.
func (m *Machine) apply(fn, arg Value) Value {
	switch c := fn.(type) {
	case *CompiledClosure:
		return m.callFn(c.Fn, c.Env, arg)
	case *Closure:
		return m.eval(c.Body, c.Env.Bind(c.Param, arg))
	}
	return m.crash("application of non-function %s", String(fn))
}

// callFn runs cf on arg in a frame whose parent is env: the one call
// path of the compiled engine, shared by apply, join calls and curried
// chains. It counts one step per application (the tree walker counts
// one per node), so MaxSteps still bounds divergence — any infinite
// loop in the lambda language recurses through callFn.
func (m *Machine) callFn(cf *CompiledFn, env *Frame, arg Value) Value {
	m.step()
	if m.prof != nil {
		return m.callProf(cf, env, arg)
	}
	if cf.escapes {
		fr := newFrame(env, int(cf.NSlots))
		fr.slots[0] = arg
		return cf.code(m)(m, fr)
	}
	// Non-escaping frame: recycle it through the machine's pool. An
	// exception unwinding past this call skips the release; the frame
	// is then simply collected like any other.
	fr := m.getFrame(env, int(cf.NSlots))
	fr.slots[0] = arg
	v := cf.code(m)(m, fr)
	m.putFrame(fr)
	return v
}

// applyChain applies f to the values of args in turn, as the nested
// applications f a1 ... ak would. When f is a compiled closure of a
// curried function (CompiledFn.inner), each level the chain saturates
// is entered without building the closure it would return: the level's
// step is counted and its argument written to a frame that becomes the
// next level's parent, in the original order of steps and argument
// evaluations. Those frames come from the pool only when the final
// callee's frame does not escape — then nothing can capture them — and
// go back after that call. Anything else, and every profiled call,
// takes plain apply.
func (m *Machine) applyChain(f Value, fr *Frame, args []cnode) Value {
	c, ok := f.(*CompiledClosure)
	if !ok || m.prof != nil {
		for _, a := range args {
			f = m.apply(f, a(m, fr))
		}
		return f
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
	v := m.callFn(cf, env, arg)
	if pooled {
		for i := 0; i < n; i++ {
			up := env.up
			m.putFrame(env)
			env = up
		}
	}
	for _, a := range args[n+1:] {
		v = m.apply(v, a(m, fr))
	}
	return v
}

// getFrame returns an n-slot frame under up, from the pool when it has
// one. Slots are cleared on release, never on reuse — a slot read is
// always dominated by a write in the same activation (binders dominate
// uses), so stale values are unreachable and only need dropping for
// the collector's sake.
func (m *Machine) getFrame(up *Frame, n int) *Frame {
	k := len(m.framePool)
	if k == 0 {
		return newFrame(up, n)
	}
	fr := m.framePool[k-1]
	m.framePool = m.framePool[:k-1]
	fr.up = up
	if n <= cap(fr.slots) {
		fr.slots = fr.slots[:n]
	} else {
		fr.slots = make([]Value, n)
	}
	return fr
}

// putFrame returns a frame nothing references any more to the pool.
func (m *Machine) putFrame(fr *Frame) {
	fr.up = nil
	clear(fr.slots)
	m.framePool = append(m.framePool, fr)
}

func (m *Machine) evalSwitch(e *lambda.Switch, env *Env) Value {
	scrut := m.eval(e.Scrut, env)
	switch e.Kind {
	case lambda.SwitchConTag:
		c, ok := scrut.(*ConV)
		if !ok {
			m.crash("switch on non-constructed value %s", String(scrut))
		}
		for _, cs := range e.Cases {
			if cs.Tag == c.Tag {
				return m.eval(cs.Body, env)
			}
		}
	case lambda.SwitchInt:
		n, ok := scrut.(IntV)
		if !ok {
			m.crash("int switch on %s", String(scrut))
		}
		for _, cs := range e.Cases {
			if cs.IntKey == int64(n) {
				return m.eval(cs.Body, env)
			}
		}
	case lambda.SwitchWord:
		n, ok := scrut.(WordV)
		if !ok {
			m.crash("word switch on %s", String(scrut))
		}
		for _, cs := range e.Cases {
			if cs.WordKey == uint64(n) {
				return m.eval(cs.Body, env)
			}
		}
	case lambda.SwitchStr:
		s, ok := scrut.(StrV)
		if !ok {
			m.crash("string switch on %s", String(scrut))
		}
		for _, cs := range e.Cases {
			if cs.StrKey == string(s) {
				return m.eval(cs.Body, env)
			}
		}
	case lambda.SwitchChar:
		c, ok := scrut.(CharV)
		if !ok {
			m.crash("char switch on %s", String(scrut))
		}
		for _, cs := range e.Cases {
			if len(cs.StrKey) == 1 && cs.StrKey[0] == byte(c) {
				return m.eval(cs.Body, env)
			}
		}
	}
	if e.Default == nil {
		m.crash("non-exhaustive switch with no default")
	}
	return m.eval(e.Default, env)
}
