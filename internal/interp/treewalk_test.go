package interp

// The reference tree walker: the lambda IR's source semantics, which
// the compiled engine (compile.go) must reproduce. It lives in test
// files only; tests and the FuzzExecTreeVsClosure oracle compare the
// compiled form against it (DESIGN.md §4j).
//
// The walker has no closure kind of its own. A lambda.Fn evaluates to
// a *CompiledClosure whose body walks the function's term, so compiled
// code (the prelude's map and foldl, say) applies walker closures
// through the one call path, callFn, and vice versa. Such a closure
// captures its environment inside the Go closure of its body, so
// MutScanner and the profiler see it as opaque; neither runs on the
// oracle path.

import "repro/internal/lambda"

// Env is the walker's environment: an immutable linked list from
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

// Eval evaluates e under env with the tree walker, converting a
// raised-to-top exception into an *UncaughtError and internal crashes
// into *CrashError.
func (m *Machine) Eval(e lambda.Exp, env *Env) (v Value, err error) {
	defer m.convert(&err)
	return m.eval(e, env), nil
}

// walkerClosure returns fn closed over *env as a compiled closure
// whose one-slot body walks fn.Body under *env extended with the
// argument. env is read at each call, so Fix can bind the closures
// before the environment they close over is complete.
func walkerClosure(fn *lambda.Fn, env **Env) *CompiledClosure {
	body := func(m *Machine, fr *Frame) Value {
		return m.eval(fn.Body, (*env).Bind(fn.Param, fr.slots[0]))
	}
	return &CompiledClosure{Fn: &CompiledFn{body: body, NSlots: 1, escapes: true}}
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
		cell := env
		return walkerClosure(e, &cell)
	case *lambda.Fix:
		// Tie the knot: bind every name to a closure over the cell,
		// then fill the cell with the environment that binds them.
		cell := new(*Env)
		newEnv := env
		for i, fn := range e.Fns {
			newEnv = newEnv.Bind(e.Names[i], walkerClosure(fn, cell))
		}
		*cell = newEnv
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
