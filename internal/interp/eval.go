package interp

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

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
	// CompiledFn.escapes). Per-machine, like the machine itself: never
	// shared across goroutines, and Fork starts its copy empty.
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
		if len(e.Fields) == 0 {
			return Unit()
		}
		vs := make(RecordV, len(e.Fields))
		for i, f := range e.Fields {
			vs[i] = m.eval(f, env)
		}
		return vs
	case *lambda.Select:
		rec := m.eval(e.Rec, env)
		r, ok := rec.(RecordV)
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
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			args[i] = m.eval(a, env)
		}
		return m.prim(e.Op, args)
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
// values interoperate in either direction. The compiled case counts
// one step per application (the tree walker counts one per node), so
// MaxSteps still bounds divergence — any infinite loop in the lambda
// language recurses through apply.
func (m *Machine) apply(fn, arg Value) Value {
	if m.prof != nil {
		return m.applyProf(fn, arg)
	}
	switch c := fn.(type) {
	case *CompiledClosure:
		m.step()
		cf := c.Fn
		if !cf.escapes {
			// Non-escaping frame: recycle through the machine's pool.
			// An exception unwinding past this call skips the release;
			// the frame is then simply collected like any other. Slots
			// are cleared on release, never on reuse — a slot read is
			// always dominated by a write in the same activation
			// (binders dominate uses), so stale values are unreachable
			// and only need dropping for the collector's sake.
			var fr *Frame
			if n := len(m.framePool); n > 0 {
				fr = m.framePool[n-1]
				m.framePool = m.framePool[:n-1]
				fr.up = c.Env
				if cf.NSlots <= cap(fr.slots) {
					fr.slots = fr.slots[:cf.NSlots]
				} else {
					fr.slots = make([]Value, cf.NSlots)
				}
			} else {
				fr = newFrame(c.Env, cf.NSlots)
			}
			fr.slots[0] = arg
			v := cf.code(m)(m, fr)
			fr.up = nil
			for i := range fr.slots {
				fr.slots[i] = nil
			}
			m.framePool = append(m.framePool, fr)
			return v
		}
		fr := newFrame(c.Env, cf.NSlots)
		fr.slots[0] = arg
		return cf.code(m)(m, fr)
	case *Closure:
		return m.eval(c.Body, c.Env.Bind(c.Param, arg))
	}
	return m.crash("application of non-function %s", String(fn))
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

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

// prim implements the basis primitives. Arithmetic and comparison are
// overloaded in SML; the elaborator guarantees homogeneous argument
// types, so the implementation dispatches on the runtime representation.
func (m *Machine) prim(op string, args []Value) Value {
	switch op {
	case "add", "sub", "mul":
		return m.arith(op, args[0], args[1])
	case "div":
		return m.intdiv(args[0], args[1], false)
	case "mod":
		return m.intdiv(args[0], args[1], true)
	case "quot", "rem":
		a, ok1 := args[0].(IntV)
		b, ok2 := args[1].(IntV)
		if !ok1 || !ok2 {
			return m.crash("%s of %s", op, String(args[0]))
		}
		if b == 0 {
			m.raise(m.TagDiv, nil)
		}
		if op == "quot" {
			return IntV(int64(a) / int64(b))
		}
		return IntV(int64(a) % int64(b))
	case "fdiv":
		a, b := m.realArg(args[0]), m.realArg(args[1])
		return RealV(a / b)
	case "neg":
		switch a := args[0].(type) {
		case IntV:
			if a == math.MinInt64 {
				m.raise(m.TagOverflow, nil)
			}
			return IntV(-a)
		case RealV:
			return RealV(-a)
		case WordV:
			return WordV(-a)
		}
		return m.crash("neg of %s", String(args[0]))
	case "abs":
		switch a := args[0].(type) {
		case IntV:
			if a < 0 {
				if a == math.MinInt64 {
					m.raise(m.TagOverflow, nil)
				}
				return IntV(-a)
			}
			return a
		case RealV:
			return RealV(math.Abs(float64(a)))
		}
		return m.crash("abs of %s", String(args[0]))
	case "lt", "le", "gt", "ge":
		return m.compare(op, args[0], args[1])
	case "eq":
		return Bool(Eq(args[0], args[1]))
	case "ne":
		return Bool(!Eq(args[0], args[1]))
	case "concat":
		a, b := m.strArg(args[0]), m.strArg(args[1])
		return StrV(a + b)
	case "size":
		return IntV(len(m.strArg(args[0])))
	case "str":
		c, ok := args[0].(CharV)
		if !ok {
			return m.crash("str of %s", String(args[0]))
		}
		return StrV(string(byte(c)))
	case "chr":
		n, ok := args[0].(IntV)
		if !ok {
			return m.crash("chr of %s", String(args[0]))
		}
		if n < 0 || n > 255 {
			m.raise(m.TagChr, nil)
		}
		return CharV(byte(n))
	case "ord":
		c, ok := args[0].(CharV)
		if !ok {
			return m.crash("ord of %s", String(args[0]))
		}
		return IntV(c)
	case "explode":
		s := m.strArg(args[0])
		elems := make([]Value, len(s))
		for i := 0; i < len(s); i++ {
			elems[i] = CharV(s[i])
		}
		return List(elems)
	case "implode":
		elems, ok := GoList(args[0])
		if !ok {
			return m.crash("implode of %s", String(args[0]))
		}
		var sb strings.Builder
		for _, e := range elems {
			c, ok := e.(CharV)
			if !ok {
				return m.crash("implode of non-char list")
			}
			sb.WriteByte(byte(c))
		}
		return StrV(sb.String())
	case "substring":
		t, ok := args[0].(RecordV)
		if !ok || len(t) != 3 {
			return m.crash("substring arity")
		}
		s := m.strArg(t[0])
		i, ok1 := t[1].(IntV)
		n, ok2 := t[2].(IntV)
		if !ok1 || !ok2 {
			return m.crash("substring args")
		}
		if i < 0 || n < 0 || int(i+n) > len(s) {
			m.raise(m.TagSubscript, nil)
		}
		return StrV(s[i : i+n])
	case "real":
		n, ok := args[0].(IntV)
		if !ok {
			return m.crash("real of %s", String(args[0]))
		}
		return RealV(float64(n))
	case "floor":
		r := m.realArg(args[0])
		f := math.Floor(r)
		if f > math.MaxInt64 || f < math.MinInt64 || math.IsNaN(f) {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(int64(f))
	case "ceil":
		r := m.realArg(args[0])
		f := math.Ceil(r)
		if f > math.MaxInt64 || f < math.MinInt64 || math.IsNaN(f) {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(int64(f))
	case "round":
		r := m.realArg(args[0])
		f := math.RoundToEven(r)
		if f > math.MaxInt64 || f < math.MinInt64 || math.IsNaN(f) {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(int64(f))
	case "trunc":
		r := m.realArg(args[0])
		f := math.Trunc(r)
		if f > math.MaxInt64 || f < math.MinInt64 || math.IsNaN(f) {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(int64(f))
	case "sqrt":
		return RealV(math.Sqrt(m.realArg(args[0])))
	case "ln":
		return RealV(math.Log(m.realArg(args[0])))
	case "exp":
		return RealV(math.Exp(m.realArg(args[0])))
	case "sin":
		return RealV(math.Sin(m.realArg(args[0])))
	case "cos":
		return RealV(math.Cos(m.realArg(args[0])))
	case "atan":
		return RealV(math.Atan(m.realArg(args[0])))
	case "intToString":
		n, ok := args[0].(IntV)
		if !ok {
			return m.crash("intToString of %s", String(args[0]))
		}
		s := fmt.Sprintf("%d", int64(n))
		return StrV(strings.ReplaceAll(s, "-", "~"))
	case "realToString":
		return StrV(String(args[0]))
	case "ref":
		return &RefV{Cell: args[0]}
	case "deref":
		r, ok := args[0].(*RefV)
		if !ok {
			return m.crash("! of %s", String(args[0]))
		}
		return r.Cell
	case "assign":
		r, ok := args[0].(*RefV)
		if !ok {
			return m.crash(":= to %s", String(args[0]))
		}
		r.Cell = args[1]
		return Unit()
	case "print":
		fmt.Fprint(m.Stdout, m.strArg(args[0]))
		return Unit()
	case "exnName":
		ev, ok := args[0].(*ExnV)
		if !ok {
			return m.crash("exnName of %s", String(args[0]))
		}
		return StrV(ev.Tag.Name)
	case "exnMatches":
		// exnMatches(packet, tag): does the packet carry this tag?
		ev, ok1 := args[0].(*ExnV)
		tag, ok2 := args[1].(*ExnTag)
		if !ok1 || !ok2 {
			return m.crash("exnMatches of %s, %s", String(args[0]), String(args[1]))
		}
		return Bool(ev.Tag == tag)
	case "raiseDiv":
		m.raise(m.TagDiv, nil)
	case "raiseMatch":
		m.raise(m.TagMatch, nil)
	case "raiseBind":
		m.raise(m.TagBind, nil)
	case "andb":
		return WordV(m.wordArg(args[0]) & m.wordArg(args[1]))
	case "orb":
		return WordV(m.wordArg(args[0]) | m.wordArg(args[1]))
	case "xorb":
		return WordV(m.wordArg(args[0]) ^ m.wordArg(args[1]))
	case "notb":
		return WordV(^m.wordArg(args[0]))
	case "lshift":
		return WordV(m.wordArg(args[0]) << m.shiftArg(args[1]))
	case "rshift":
		return WordV(m.wordArg(args[0]) >> m.shiftArg(args[1]))
	case "array":
		t, ok := args[0].(RecordV)
		if !ok || len(t) != 2 {
			return m.crash("array arity")
		}
		n, ok := t[0].(IntV)
		if !ok {
			return m.crash("array size")
		}
		if n < 0 || n > 1<<28 {
			m.raise(m.TagSize, nil)
		}
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = t[1]
		}
		return &ArrV{Elems: elems}
	case "arrayFromList":
		elems, ok := GoList(args[0])
		if !ok {
			return m.crash("arrayFromList of %s", String(args[0]))
		}
		return &ArrV{Elems: elems}
	case "asub":
		t, ok := args[0].(RecordV)
		if !ok || len(t) != 2 {
			return m.crash("sub arity")
		}
		a, ok1 := t[0].(*ArrV)
		i, ok2 := t[1].(IntV)
		if !ok1 || !ok2 {
			return m.crash("sub args")
		}
		if i < 0 || int(i) >= len(a.Elems) {
			m.raise(m.TagSubscript, nil)
		}
		return a.Elems[i]
	case "aupdate":
		t, ok := args[0].(RecordV)
		if !ok || len(t) != 3 {
			return m.crash("update arity")
		}
		a, ok1 := t[0].(*ArrV)
		i, ok2 := t[1].(IntV)
		if !ok1 || !ok2 {
			return m.crash("update args")
		}
		if i < 0 || int(i) >= len(a.Elems) {
			m.raise(m.TagSubscript, nil)
		}
		a.Elems[i] = t[2]
		return Unit()
	case "alength":
		a, ok := args[0].(*ArrV)
		if !ok {
			return m.crash("length of %s", String(args[0]))
		}
		return IntV(len(a.Elems))
	case "vectorFromList":
		elems, ok := GoList(args[0])
		if !ok {
			return m.crash("vectorFromList of %s", String(args[0]))
		}
		return VecV(elems)
	case "vsub":
		t, ok := args[0].(RecordV)
		if !ok || len(t) != 2 {
			return m.crash("Vector.sub arity")
		}
		v, ok1 := t[0].(VecV)
		i, ok2 := t[1].(IntV)
		if !ok1 || !ok2 {
			return m.crash("Vector.sub args")
		}
		if i < 0 || int(i) >= len(v) {
			m.raise(m.TagSubscript, nil)
		}
		return v[i]
	case "vlength":
		v, ok := args[0].(VecV)
		if !ok {
			return m.crash("Vector.length of %s", String(args[0]))
		}
		return IntV(len(v))
	case "wordToInt":
		w := m.wordArg(args[0])
		if w > math.MaxInt64 {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(int64(w))
	case "intToWord":
		n, ok := args[0].(IntV)
		if !ok {
			return m.crash("intToWord of %s", String(args[0]))
		}
		return WordV(uint64(n))
	}
	return m.crash("unknown primitive %q", op)
}

func (m *Machine) arith(op string, a, b Value) Value {
	switch x := a.(type) {
	case IntV:
		y, ok := b.(IntV)
		if !ok {
			return m.crash("%s of int and %s", op, String(b))
		}
		var r int64
		var overflow bool
		switch op {
		case "add":
			r = int64(x) + int64(y)
			overflow = (int64(x) > 0 && int64(y) > 0 && r < 0) || (int64(x) < 0 && int64(y) < 0 && r >= 0)
		case "sub":
			r = int64(x) - int64(y)
			overflow = (int64(x) >= 0 && int64(y) < 0 && r < 0) || (int64(x) < 0 && int64(y) > 0 && r >= 0)
		case "mul":
			r = int64(x) * int64(y)
			overflow = x != 0 && (r/int64(x) != int64(y))
		}
		if overflow {
			m.raise(m.TagOverflow, nil)
		}
		return IntV(r)
	case RealV:
		y, ok := b.(RealV)
		if !ok {
			return m.crash("%s of real and %s", op, String(b))
		}
		switch op {
		case "add":
			return RealV(x + y)
		case "sub":
			return RealV(x - y)
		case "mul":
			return RealV(x * y)
		}
	case WordV:
		y, ok := b.(WordV)
		if !ok {
			return m.crash("%s of word and %s", op, String(b))
		}
		switch op {
		case "add":
			return WordV(x + y)
		case "sub":
			return WordV(x - y)
		case "mul":
			return WordV(x * y)
		}
	}
	return m.crash("%s of %s", op, String(a))
}

// intdiv implements SML div/mod (flooring division) for int and word.
func (m *Machine) intdiv(a, b Value, wantMod bool) Value {
	switch x := a.(type) {
	case IntV:
		y, ok := b.(IntV)
		if !ok {
			return m.crash("div of int and %s", String(b))
		}
		if y == 0 {
			m.raise(m.TagDiv, nil)
		}
		q := int64(x) / int64(y)
		r := int64(x) % int64(y)
		if r != 0 && (r < 0) != (int64(y) < 0) {
			q--
			r += int64(y)
		}
		if wantMod {
			return IntV(r)
		}
		return IntV(q)
	case WordV:
		y, ok := b.(WordV)
		if !ok {
			return m.crash("div of word and %s", String(b))
		}
		if y == 0 {
			m.raise(m.TagDiv, nil)
		}
		if wantMod {
			return WordV(uint64(x) % uint64(y))
		}
		return WordV(uint64(x) / uint64(y))
	}
	return m.crash("div of %s", String(a))
}

func (m *Machine) compare(op string, a, b Value) Value {
	var c int
	switch x := a.(type) {
	case IntV:
		y, ok := b.(IntV)
		if !ok {
			return m.crash("compare int with %s", String(b))
		}
		c = cmpOrd(int64(x), int64(y))
	case WordV:
		y, ok := b.(WordV)
		if !ok {
			return m.crash("compare word with %s", String(b))
		}
		c = cmpOrd(uint64(x), uint64(y))
	case RealV:
		y, ok := b.(RealV)
		if !ok {
			return m.crash("compare real with %s", String(b))
		}
		c = cmpOrd(float64(x), float64(y))
	case StrV:
		y, ok := b.(StrV)
		if !ok {
			return m.crash("compare string with %s", String(b))
		}
		c = strings.Compare(string(x), string(y))
	case CharV:
		y, ok := b.(CharV)
		if !ok {
			return m.crash("compare char with %s", String(b))
		}
		c = cmpOrd(byte(x), byte(y))
	default:
		return m.crash("compare of %s", String(a))
	}
	switch op {
	case "lt":
		return Bool(c < 0)
	case "le":
		return Bool(c <= 0)
	case "gt":
		return Bool(c > 0)
	case "ge":
		return Bool(c >= 0)
	}
	return m.crash("unknown comparison %q", op)
}

func cmpOrd[T int64 | uint64 | float64 | byte](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (m *Machine) strArg(v Value) string {
	s, ok := v.(StrV)
	if !ok {
		m.crash("expected string, got %s", String(v))
	}
	return string(s)
}

func (m *Machine) realArg(v Value) float64 {
	r, ok := v.(RealV)
	if !ok {
		m.crash("expected real, got %s", String(v))
	}
	return float64(r)
}

func (m *Machine) wordArg(v Value) uint64 {
	w, ok := v.(WordV)
	if !ok {
		m.crash("expected word, got %s", String(v))
	}
	return uint64(w)
}

func (m *Machine) shiftArg(v Value) uint64 {
	w, ok := v.(WordV)
	if !ok {
		m.crash("expected word shift amount, got %s", String(v))
	}
	if w > 63 {
		return 63
	}
	return uint64(w)
}

// PrimNames lists the implemented primitive operators, sorted; used by
// tests to keep the basis and the machine in sync.
func PrimNames() []string {
	names := []string{
		"add", "sub", "mul", "div", "mod", "quot", "rem", "fdiv", "neg", "abs",
		"lt", "le", "gt", "ge", "eq", "ne",
		"concat", "size", "str", "chr", "ord", "explode", "implode",
		"substring", "real", "floor", "ceil", "round", "trunc",
		"sqrt", "ln", "exp", "sin", "cos", "atan",
		"intToString", "realToString",
		"ref", "deref", "assign", "print",
		"exnName", "exnMatches", "raiseDiv", "raiseMatch", "raiseBind",
		"andb", "orb", "xorb", "notb", "lshift", "rshift",
		"wordToInt", "intToWord",
		"array", "arrayFromList", "asub", "aupdate", "alength",
		"vectorFromList", "vsub", "vlength",
	}
	sort.Strings(names)
	return names
}
