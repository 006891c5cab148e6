package lambda

import (
	"slices"
	"sync"
)

// Prune returns fn without the bindings that nothing fn returns can
// reach: SML/NJ's dead-variable elimination (Appel, Compiling with
// Continuations), run on a unit's code before it is pickled. A unit's
// term is λ(imports).(exports), and a signature ascription builds the
// export record by selecting from a record of every member, so a
// hidden helper is still read there. Three rewrites remove it:
//
//  1. A Let or Fix heading a let-bound expression floats out:
//     let x = (let y = a in b) in c becomes let y = a in let x = b in c.
//     LVars are unique in a compilation, so nothing is captured, and
//     the order of evaluation is unchanged.
//  2. Select(i, v), where v is let-bound to a Record of variables,
//     becomes that record's field i: records are immutable. A field may
//     itself be such a Select, so a chain of them becomes one variable.
//     An out-of-range Select stays as it is.
//  3. A Let whose value is pure (pure below) and whose variable no
//     reachable code reads is dropped, and so is a Fix group whose
//     names are read only inside the group's own functions.
//
// Prune is two walks. The first marks what reachable code reads, with
// rewrites 1 and 2 applied as it goes; the value of a droppable
// binding is walked only once its variable is read, so dead code is
// never walked at all. The second builds the result, applying all
// three. Its result is their fixpoint: Prune(Prune(fn)) returns its
// argument. Each walk visits a live node once, and Size(Prune(fn)) <=
// Size(fn).
//
// Nothing that can raise, loop, allocate a ref or print is dropped:
// only a binding that merely builds a value is. Prune never changes a
// node it was given — the elaborator shares some, such as a match's
// failure call — and builds new ones only on the paths it rewrites, so
// its result may share subterms with fn.
func Prune(fn *Fn) *Fn {
	p := pruners.Get().(*pruner)
	defer p.release()
	p.mark(fn)
	return p.rebuild(fn).(*Fn)
}

// pruner is Prune's state. Its variable table is kept, cleared, across
// calls through pruners: a unit's term has hundreds to thousands of
// variables, and growing the table for every compile cost as much as
// the walks.
type pruner struct {
	vars  []lvState // by LVar; zero past len up to cap
	spine []binder  // rebuild's floated binders, a stack

	markFn, rebuildFn func(Exp) Exp
}

// lvState is what Prune knows of one variable.
type lvState struct {
	rec       *Record // the record of variables it is let-bound to (rewrite 2)
	val       Exp     // a droppable binding's value until marked: the pure value, or the group's *Fix
	droppable bool    // bound by a pure Let or a Fix
	live      bool    // read by reachable code
}

// binder is one Let or Fix of a floated spine, its value or functions
// rebuilt.
type binder struct {
	lv   LVar
	bind Exp
	fix  *Fix
	fns  []*Fn
}

var pruners = sync.Pool{New: func() any {
	p := &pruner{}
	p.markFn, p.rebuildFn = p.mark, p.rebuild
	return p
}}

func (p *pruner) release() {
	clear(p.vars)
	p.vars = p.vars[:0]
	clear(p.spine[:cap(p.spine)])
	pruners.Put(p)
}

// at makes lv's state indexable and reports whether it can be: an
// elaborated term numbers its variables from 1.
func (p *pruner) at(lv LVar) bool {
	if lv < 0 {
		return false
	}
	if n := int(lv) + 1; n > len(p.vars) {
		if n > cap(p.vars) {
			n = max(n, 2*cap(p.vars), 256)
		}
		p.vars = slices.Grow(p.vars, n-len(p.vars))[:n]
	}
	return true
}

// resolve returns the variable e reads when e is a variable or, by
// rewrite 2, a chain of in-range Selects from a variable let-bound to a
// record of variables; else nil.
func (p *pruner) resolve(e Exp) *Var {
	switch e := e.(type) {
	case *Var:
		return e
	case *Select:
		if v := p.resolve(e.Rec); v != nil && p.at(v.LV) {
			if r := p.vars[v.LV].rec; r != nil && e.Idx >= 0 && e.Idx < len(r.Fields) {
				return p.resolve(r.Fields[e.Idx])
			}
		}
	}
	return nil
}

// pure reports whether evaluating e only builds a value: a function, a
// variable (a Select that resolves to one included), a constant, or a
// record or constructor of pure values.
func (p *pruner) pure(e Exp) bool {
	switch e := e.(type) {
	case *Fn, *Var, *Int, *Word, *Real, *Str, *Char:
		return true
	case *Select:
		return p.resolve(e) != nil
	case *Record:
		for _, f := range e.Fields {
			if !p.pure(f) {
				return false
			}
		}
		return true
	case *Con:
		return e.Arg == nil || p.pure(e.Arg)
	}
	return false
}

// mark marks live every variable that reachable code reads, a Select
// that resolves reading only the variable it resolves to. The value of
// a droppable binding is marked only once its variable is, so a binding
// read only by dead code, a Fix group's own functions included, stays
// unmarked. A binder precedes its scope in the walk, so a record is
// known before any Select from it. mark returns e, so that mapKids can
// walk the children of the nodes it has no case for.
func (p *pruner) mark(e Exp) Exp {
	switch e := e.(type) {
	case *Var:
		p.use(e.LV)
	case *Select:
		if v := p.resolve(e); v != nil {
			p.use(v.LV)
		} else {
			p.mark(e.Rec)
		}
	case *Let:
		p.markLet(e.LV, e.Bind)
		p.mark(e.Body)
	case *Fix:
		p.markFix(e)
		p.mark(e.Body)
	default:
		mapKids(e, p.markFn)
	}
	return e
}

// markLet marks let lv = bind as rewrite 1 leaves it: each Let and Fix
// heading bind, at any depth, first, as a binding of its own.
func (p *pruner) markLet(lv LVar, bind Exp) {
	switch s := bind.(type) {
	case *Let:
		p.markLet(s.LV, s.Bind)
		p.markLet(lv, s.Body)
		return
	case *Fix:
		p.markFix(s)
		p.markLet(lv, s.Body)
		return
	}
	if !p.at(lv) || !p.pure(bind) {
		p.mark(bind)
		return
	}
	r, _ := bind.(*Record)
	if r != nil && !p.ofVars(r) {
		r = nil
	}
	v := &p.vars[lv]
	v.rec, v.droppable, v.val = r, true, bind
	if v.live { // a shared node met again
		p.markVal(lv)
	}
}

func (p *pruner) ofVars(r *Record) bool {
	for _, f := range r.Fields {
		if p.resolve(f) == nil {
			return false
		}
	}
	return true
}

// markFix defers a Fix group's functions until one of its names is
// read.
func (p *pruner) markFix(x *Fix) {
	live := false
	for _, n := range x.Names {
		if !p.at(n) {
			live = true
			continue
		}
		v := &p.vars[n]
		v.droppable = true
		v.val = x
		live = live || v.live
	}
	if live {
		p.markFns(x)
	}
}

// use marks lv live, and the first time, the value that binds it.
func (p *pruner) use(lv LVar) {
	if !p.at(lv) || p.vars[lv].live {
		return
	}
	p.vars[lv].live = true
	p.markVal(lv)
}

func (p *pruner) markVal(lv LVar) {
	switch x := p.vars[lv].val.(type) {
	case nil:
	case *Fix:
		p.markFns(x)
	default:
		p.vars[lv].val = nil
		p.mark(x)
	}
}

// markFns marks a Fix group's functions, once.
func (p *pruner) markFns(x *Fix) {
	for _, n := range x.Names {
		if p.at(n) {
			p.vars[n].val = nil
		}
	}
	for _, f := range x.Fns {
		p.mark(f.Body)
	}
}

// dead reports whether lv's binding goes: droppable, and not read by
// reachable code.
func (p *pruner) dead(lv LVar) bool {
	return p.at(lv) && p.vars[lv].droppable && !p.vars[lv].live
}

func (p *pruner) groupDead(x *Fix) bool {
	for _, n := range x.Names {
		if !p.dead(n) {
			return false
		}
	}
	return true
}

// rebuild applies the three rewrites as mark decided them. It never
// enters the value of a dead binding.
func (p *pruner) rebuild(e Exp) Exp {
	switch e := e.(type) {
	case *Select:
		if v := p.resolve(e); v != nil {
			return v
		}
	case *Let:
		base := len(p.spine)
		p.rebuildLet(e.LV, e.Bind)
		body := p.rebuild(e.Body)
		spine := p.spine[base:]
		p.spine = p.spine[:base]
		if len(spine) == 1 && spine[0].lv == e.LV && spine[0].bind == e.Bind && body == e.Body {
			return e
		}
		for i := len(spine) - 1; i >= 0; i-- {
			if b := spine[i]; b.fix != nil {
				body = &Fix{Names: b.fix.Names, Fns: b.fns, Body: body}
			} else {
				body = &Let{LV: b.lv, Bind: b.bind, Body: body}
			}
		}
		return body
	case *Fix:
		if p.groupDead(e) {
			return p.rebuild(e.Body)
		}
	}
	return mapKids(e, p.rebuildFn)
}

// rebuildLet pushes onto p.spine the live bindings that let lv = bind
// becomes once every Let and Fix heading bind, at any depth, has
// floated out, ending with lv's own. A floated binding is built once,
// however deep it sat.
func (p *pruner) rebuildLet(lv LVar, bind Exp) {
	switch s := bind.(type) {
	case *Let:
		p.rebuildLet(s.LV, s.Bind)
		p.rebuildLet(lv, s.Body)
		return
	case *Fix:
		if !p.groupDead(s) {
			fns, _ := mapEach(s.Fns, p.rebuildFn)
			p.spine = append(p.spine, binder{fix: s, fns: fns})
		}
		p.rebuildLet(lv, s.Body)
		return
	}
	if !p.dead(lv) {
		p.spine = append(p.spine, binder{lv: lv, bind: p.rebuild(bind)})
	}
}

// mapKids returns e with f applied to each child, or e itself when f
// returns every child unchanged. f maps a Fix's functions to functions.
func mapKids(e Exp, f func(Exp) Exp) Exp {
	switch e := e.(type) {
	case *Record:
		if fs, ok := mapEach(e.Fields, f); ok {
			return &Record{Fields: fs}
		}
	case *Select:
		if r := f(e.Rec); r != e.Rec {
			return &Select{Idx: e.Idx, Rec: r}
		}
	case *Fn:
		if b := f(e.Body); b != e.Body {
			return &Fn{Param: e.Param, Pos: e.Pos, Body: b}
		}
	case *Fix:
		fns, changed := mapEach(e.Fns, f)
		if b := f(e.Body); changed || b != e.Body {
			return &Fix{Names: e.Names, Fns: fns, Body: b}
		}
	case *App:
		fn, arg := f(e.Fn), f(e.Arg)
		if fn != e.Fn || arg != e.Arg {
			return &App{Fn: fn, Arg: arg}
		}
	case *Let:
		bind, body := f(e.Bind), f(e.Body)
		if bind != e.Bind || body != e.Body {
			return &Let{LV: e.LV, Bind: bind, Body: body}
		}
	case *Con:
		if e.Arg != nil {
			if a := f(e.Arg); a != e.Arg {
				return &Con{Tag: e.Tag, Name: e.Name, Arg: a}
			}
		}
	case *Decon:
		if x := f(e.Exp); x != e.Exp {
			return &Decon{Exp: x}
		}
	case *ExnCon:
		tag, arg := f(e.Tag), e.Arg
		if arg != nil {
			arg = f(arg)
		}
		if tag != e.Tag || arg != e.Arg {
			return &ExnCon{Tag: tag, Arg: arg}
		}
	case *ExnDecon:
		if x := f(e.Exp); x != e.Exp {
			return &ExnDecon{Exp: x}
		}
	case *If:
		c, t, el := f(e.Cond), f(e.Then), f(e.Else)
		if c != e.Cond || t != e.Then || el != e.Else {
			return &If{Cond: c, Then: t, Else: el}
		}
	case *Switch:
		scrut, cases, changed := f(e.Scrut), e.Cases, false
		for i := range e.Cases {
			if b := f(e.Cases[i].Body); b != e.Cases[i].Body {
				if !changed {
					cases, changed = slices.Clone(cases), true
				}
				cases[i].Body = b
			}
		}
		def := e.Default
		if def != nil {
			def = f(def)
		}
		if scrut != e.Scrut || changed || def != e.Default {
			return &Switch{Kind: e.Kind, Scrut: scrut, Span: e.Span, Cases: cases, Default: def}
		}
	case *Prim:
		if args, ok := mapEach(e.Args, f); ok {
			return &Prim{Op: e.Op, Args: args}
		}
	case *Raise:
		if x := f(e.Exp); x != e.Exp {
			return &Raise{Exp: x}
		}
	case *Handle:
		body, h := f(e.Body), f(e.Handler)
		if body != e.Body || h != e.Handler {
			return &Handle{Body: body, Param: e.Param, Handler: h}
		}
	}
	return e
}

// mapEach applies f to each of xs, copying xs on the first change; ok
// reports a change. f maps a Fix's functions to functions.
func mapEach[T Exp](xs []T, f func(Exp) Exp) (out []T, ok bool) {
	out = xs
	for i, x := range xs {
		if g := f(x).(T); Exp(g) != Exp(x) {
			if !ok {
				out, ok = slices.Clone(xs), true
			}
			out[i] = g
		}
	}
	return out, ok
}
