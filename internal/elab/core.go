package elab

import (
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/basis"
	"repro/internal/env"
	"repro/internal/lambda"
	"repro/internal/token"
	"repro/internal/types"
)

// wrapFn threads declaration bindings around a body expression.
type wrapFn func(body lambda.Exp) lambda.Exp

func idWrap(body lambda.Exp) lambda.Exp { return body }

func compose(outer, inner wrapFn) wrapFn {
	return func(body lambda.Exp) lambda.Exp { return outer(inner(body)) }
}

// letChain nests lets, whose LV and Bind are set, first to last around
// body: let lets[0] in ... let lets[n-1] in body. A caller makes the
// nodes of a chain as one block.
func letChain(lets []lambda.Let, body lambda.Exp) lambda.Exp {
	for i := len(lets) - 1; i >= 0; i-- {
		lets[i].Body = body
		body = &lets[i]
	}
	return body
}

// fieldLabels returns the labels of n record fields, label(i) giving
// field i's. Fields labelled "1".."n" in order, as every tuple's are,
// get the shared canonical table instead of a new slice.
func fieldLabels(n int, label func(i int) string) []string {
	canon := types.TupleLabels(n)
	for i, l := range canon {
		if label(i) != l {
			ls := make([]string, n)
			for j := range ls {
				ls[j] = label(j)
			}
			return ls
		}
	}
	return canon
}

// ---------------------------------------------------------------------
// Literals
// ---------------------------------------------------------------------

func (el *Elaborator) parseIntLit(pos token.Pos, text string) int64 {
	neg := false
	if strings.HasPrefix(text, "~") {
		neg = true
		text = text[1:]
	}
	base := 10
	if strings.HasPrefix(text, "0x") {
		base = 16
		text = text[2:]
	}
	n, err := strconv.ParseUint(text, base, 64)
	if err != nil || (!neg && n > 1<<63-1) || (neg && n > 1<<63) {
		el.errorf(pos, "integer literal out of range")
		return 0
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

func (el *Elaborator) parseWordLit(pos token.Pos, text string) uint64 {
	text = strings.TrimPrefix(text, "0w")
	base := 10
	if strings.HasPrefix(text, "x") {
		base = 16
		text = text[1:]
	}
	n, err := strconv.ParseUint(text, base, 64)
	if err != nil {
		el.errorf(pos, "word literal out of range")
		return 0
	}
	return n
}

func (el *Elaborator) parseRealLit(pos token.Pos, text string) float64 {
	goText := strings.ReplaceAll(text, "~", "-")
	f, err := strconv.ParseFloat(goText, 64)
	if err != nil {
		el.errorf(pos, "malformed real literal %q", text)
		return 0
	}
	return f
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// elabExp type-checks an expression and compiles it to lambda IR.
func (el *Elaborator) elabExp(e *env.Env, x ast.Exp) (types.Ty, lambda.Exp) {
	switch x := x.(type) {
	case *ast.ConstExp:
		return el.elabConst(x)

	case *ast.VarExp:
		return el.elabVarExp(e, x)

	case *ast.RecordExp:
		if len(x.Fields) == 0 {
			return types.Unit(), lambda.Unit()
		}
		// Evaluate fields in source order, then assemble in canonical
		// label order.
		n := len(x.Fields)
		labels := fieldLabels(n, func(i int) string { return x.Fields[i].Label })
		tys := make([]types.Ty, n)
		lets := make([]lambda.Let, n)
		for i, f := range x.Fields {
			tys[i], lets[i].Bind = el.elabExp(e, f.Exp)
			lets[i].LV = el.lg.Fresh()
		}
		rec, err := types.NewRecord(labels, tys)
		if err != nil {
			el.errorf(x.Pos, "%v", err)
			return types.Unit(), lambda.Unit()
		}
		// Map canonical position -> source lvar.
		vars := make([]lambda.Var, n)
		fields := make([]lambda.Exp, n)
		for ci, cl := range rec.Labels {
			for si, f := range x.Fields {
				if f.Label == cl {
					vars[ci] = lambda.Var{LV: lets[si].LV}
					fields[ci] = &vars[ci]
					break
				}
			}
		}
		return rec, letChain(lets, &lambda.Record{Fields: fields})

	case *ast.SelectExp:
		// #label as a standalone function: the record type is a flexible
		// variable; the select index is patched when it resolves.
		recVar := types.NewVar(el.level)
		resVar := types.NewVar(el.level)
		recVar.Flex = map[string]types.Ty{x.Label: resVar}
		p := el.lg.Fresh()
		sel := &lambda.Select{Idx: -1, Rec: &lambda.Var{LV: p}}
		el.pendingSelects = append(el.pendingSelects, &pendingSelect{
			node: sel, recTy: recVar, label: x.Label, pos: x.Pos,
		})
		return &types.Arrow{From: recVar, To: resVar}, &lambda.Fn{Param: p, Body: sel}

	case *ast.AppExp:
		var ft types.Ty
		var fc lambda.Exp
		if v, ok := x.Fn.(*ast.VarExp); ok {
			vb, acc, ty := el.instantiateVal(e, v)
			if vb.Prim != "" && vb.Con == nil {
				if t, c, ok := el.elabPrimApp(e, x, vb.Prim, ty); ok {
					return t, c
				}
			}
			ft, fc = ty, el.valCode(v, vb, acc)
		} else {
			ft, fc = el.elabExp(e, x.Fn)
		}
		at, ac := el.elabExp(e, x.Arg)
		res := types.NewVar(el.level)
		el.unify(expPos(x.Arg), ft, &types.Arrow{From: at, To: res}, "function application")
		return res, &lambda.App{Fn: fc, Arg: ac}

	case *ast.TypedExp:
		t, c := el.elabExp(e, x.Exp)
		want := el.elabTy(e, x.Ty)
		el.unify(expPos(x.Exp), t, want, "type constraint")
		return want, c

	case *ast.AndalsoExp:
		lt, lc := el.elabExp(e, x.L)
		rt, rc := el.elabExp(e, x.R)
		el.unify(expPos(x.L), lt, basis.Bool(), "andalso operand")
		el.unify(expPos(x.R), rt, basis.Bool(), "andalso operand")
		return basis.Bool(), &lambda.If{Cond: lc, Then: rc, Else: falseExp()}

	case *ast.OrelseExp:
		lt, lc := el.elabExp(e, x.L)
		rt, rc := el.elabExp(e, x.R)
		el.unify(expPos(x.L), lt, basis.Bool(), "orelse operand")
		el.unify(expPos(x.R), rt, basis.Bool(), "orelse operand")
		return basis.Bool(), &lambda.If{Cond: lc, Then: trueExp(), Else: rc}

	case *ast.IfExp:
		ct, cc := el.elabExp(e, x.Cond)
		el.unify(expPos(x.Cond), ct, basis.Bool(), "if condition")
		tt, tc := el.elabExp(e, x.Then)
		et, ec := el.elabExp(e, x.Else)
		el.unify(expPos(x.Else), tt, et, "if branches")
		return tt, &lambda.If{Cond: cc, Then: tc, Else: ec}

	case *ast.WhileExp:
		ct, cc := el.elabExp(e, x.Cond)
		el.unify(expPos(x.Cond), ct, basis.Bool(), "while condition")
		_, bc := el.elabExp(e, x.Body)
		// fix loop () = if cond then (body; loop ()) else ()
		loop := el.lg.Fresh()
		u := el.lg.Fresh()
		d := el.lg.Fresh()
		callLoop := &lambda.App{Fn: &lambda.Var{LV: loop}, Arg: lambda.Unit()}
		loopFn := &lambda.Fn{Param: u, Body: &lambda.If{
			Cond: cc,
			Then: &lambda.Let{LV: d, Bind: bc, Body: callLoop},
			Else: lambda.Unit(),
		}}
		return types.Unit(), &lambda.Fix{
			Names: []lambda.LVar{loop}, Fns: []*lambda.Fn{loopFn}, Body: callLoop,
		}

	case *ast.CaseExp:
		st, sc := el.elabExp(e, x.Exp)
		sv := el.lg.Fresh()
		resTy, matchCode := el.elabMatchChecked(e, x.Rules, st, &lambda.Var{LV: sv},
			&lambda.Prim{Op: "raiseMatch"}, x.Pos, true, "case expression")
		return resTy, &lambda.Let{LV: sv, Bind: sc, Body: matchCode}

	case *ast.FnExp:
		p := el.lg.Fresh()
		argTy := types.NewVar(el.level)
		resTy, matchCode := el.elabMatchChecked(e, x.Rules, argTy, &lambda.Var{LV: p},
			&lambda.Prim{Op: "raiseMatch"}, x.Pos, true, "fn expression")
		return &types.Arrow{From: argTy, To: resTy}, &lambda.Fn{Param: p, Body: matchCode}

	case *ast.LetExp:
		layer := env.New(e)
		wrap := el.elabDecs(x.Decs, layer, nil)
		t, c := el.elabExp(layer, x.Body)
		return t, wrap(c)

	case *ast.SeqExp:
		last := len(x.Exps) - 1
		lets := make([]lambda.Let, last)
		for i, sub := range x.Exps[:last] {
			_, lets[i].Bind = el.elabExp(e, sub)
			lets[i].LV = el.lg.Fresh()
		}
		t, c := el.elabExp(e, x.Exps[last])
		return t, letChain(lets, c)

	case *ast.RaiseExp:
		t, c := el.elabExp(e, x.Exp)
		el.unify(x.Pos, t, basis.Exn(), "raise operand")
		return types.NewVar(el.level), &lambda.Raise{Exp: c}

	case *ast.HandleExp:
		bt, bc := el.elabExp(e, x.Exp)
		pv := el.lg.Fresh()
		// The handler match has scrutinee type exn; an unmatched packet
		// re-raises.
		ht, hc := el.elabMatchChecked(e, x.Rules, basis.Exn(), &lambda.Var{LV: pv},
			&lambda.Raise{Exp: &lambda.Var{LV: pv}}, expPos(x.Exp), false, "handle expression")
		el.unify(expPos(x.Exp), bt, ht, "handle branches")
		return bt, &lambda.Handle{Body: bc, Param: pv, Handler: hc}

	case *ast.ListExp:
		elemTy := types.NewVar(el.level)
		code := lambda.Exp(&lambda.Con{Tag: 0, Name: "nil"})
		// Build back-to-front; evaluation order front-to-back via lets.
		lets := make([]lambda.Let, len(x.Exps))
		for i, sub := range x.Exps {
			t, c := el.elabExp(e, sub)
			el.unify(expPos(sub), t, elemTy, "list element")
			lets[i] = lambda.Let{LV: el.lg.Fresh(), Bind: c}
		}
		for i := len(lets) - 1; i >= 0; i-- {
			code = &lambda.Con{Tag: 1, Name: "::", Arg: &lambda.Record{
				Fields: []lambda.Exp{&lambda.Var{LV: lets[i].LV}, code},
			}}
		}
		return basis.List(elemTy), letChain(lets, code)
	}
	panic("elab: unknown expression form")
}

func falseExp() lambda.Exp { return &lambda.Con{Tag: 0, Name: "false"} }
func trueExp() lambda.Exp  { return &lambda.Con{Tag: 1, Name: "true"} }

func (el *Elaborator) elabConst(x *ast.ConstExp) (types.Ty, lambda.Exp) {
	switch x.Kind {
	case token.INT:
		return basis.Int(), &lambda.Int{Val: el.parseIntLit(x.Pos, x.Text)}
	case token.WORD:
		return basis.Word(), &lambda.Word{Val: el.parseWordLit(x.Pos, x.Text)}
	case token.REAL:
		return basis.Real(), &lambda.Real{Val: el.parseRealLit(x.Pos, x.Text)}
	case token.STRING:
		return basis.String(), &lambda.Str{Val: x.Text}
	case token.CHAR:
		return basis.Char(), &lambda.Char{Val: x.Text[0]}
	}
	panic("elab: unknown constant kind")
}

// elabVarExp compiles a value identifier: ordinary variable,
// constructor, exception constructor, or primitive.
func (el *Elaborator) elabVarExp(e *env.Env, x *ast.VarExp) (types.Ty, lambda.Exp) {
	vb, acc, ty := el.instantiateVal(e, x)
	return ty, el.valCode(x, vb, acc)
}

// instantiateVal looks a value identifier up and instantiates its
// type scheme. An overloaded primitive's bound variable becomes a
// fresh variable constrained to the overload's tycons.
func (el *Elaborator) instantiateVal(e *env.Env, x *ast.VarExp) (*env.ValBind, valRef, types.Ty) {
	vb, acc, ok := el.lookupVal(e, x.Name)
	if !ok {
		el.fatalf(x.Name.Pos, "%s", el.describeUnbound(e, x.Name))
	}
	if len(vb.Overload) > 0 {
		v := types.NewVar(el.level)
		v.Overload = vb.Overload
		return vb, acc, types.InstantiateWith(vb.Scheme, []types.Ty{v})
	}
	return vb, acc, types.Instantiate(vb.Scheme, el.level)
}

// valCode compiles a looked-up value identifier as a value.
func (el *Elaborator) valCode(x *ast.VarExp, vb *env.ValBind, acc valRef) lambda.Exp {
	switch {
	case vb.IsExnCon():
		tag := el.exnTagAccess(x.Name.Pos, vb, acc)
		if vb.Con.HasArg {
			p := el.lg.Fresh()
			return &lambda.Fn{Param: p, Body: &lambda.ExnCon{Tag: tag, Arg: &lambda.Var{LV: p}}}
		}
		return &lambda.ExnCon{Tag: tag}

	case vb.Con != nil:
		dc := vb.Con
		if dc.HasArg {
			p := el.lg.Fresh()
			return &lambda.Fn{Param: p, Body: &lambda.Con{
				Tag: dc.Tag, Name: dc.Name, Arg: &lambda.Var{LV: p},
			}}
		}
		return &lambda.Con{Tag: dc.Tag, Name: dc.Name}

	case vb.Prim != "":
		return el.primExp(vb.Prim)

	default:
		return acc.access(el)
	}
}

// primApp holds a saturated primitive call's nodes as one allocation.
// Binary is the widest primitive (defaultPrimArity).
type primApp struct {
	prim lambda.Prim
	args [2]lambda.Exp
	tys  [2]types.Ty
}

// elabPrimApp compiles the application x of primitive op, whose
// instantiated type is ft, straight to a Prim when the call is
// saturated: a unary primitive takes its argument as is, a binary one
// a tuple literal written in label order, so the Prim evaluates its
// operands in source order. Any other argument shape reports !ok, and
// the caller applies the primitive's eta-expansion (primExp).
func (el *Elaborator) elabPrimApp(e *env.Env, x *ast.AppExp, op string, ft types.Ty) (types.Ty, lambda.Exp, bool) {
	arity := el.arityOf(op)
	n := &primApp{}
	var at types.Ty
	if arity == 1 {
		at, n.args[0] = el.elabExp(e, x.Arg)
	} else {
		rec, ok := x.Arg.(*ast.RecordExp)
		if !ok || len(rec.Fields) != 2 || rec.Fields[0].Label != "1" || rec.Fields[1].Label != "2" {
			return nil, nil, false
		}
		for i, f := range rec.Fields {
			n.tys[i], n.args[i] = el.elabExp(e, f.Exp)
		}
		at = &types.Record{Labels: types.TupleLabels(2), Types: n.tys[:]}
	}
	res := types.NewVar(el.level)
	el.unify(expPos(x.Arg), ft, &types.Arrow{From: at, To: res}, "function application")
	n.prim = lambda.Prim{Op: op, Args: n.args[:arity:arity]}
	return res, &n.prim, true
}

// arityOf is primitive op's runtime arity; a primitive the table does
// not list takes one argument.
func (el *Elaborator) arityOf(op string) int {
	if arity, ok := el.primArity[op]; ok {
		return arity
	}
	return 1
}

// primNodes holds every node of a primitive's eta-expansion,
// fn p => op (#0 p, #1 p) or fn p => op p, so that it is one
// allocation. It serves the unsaturated uses only (foldl op+, op+ p);
// a saturated call is a bare Prim (elabPrimApp).
type primNodes struct {
	fn   lambda.Fn
	prim lambda.Prim
	args [2]lambda.Exp
	sels [2]lambda.Select
	vars [2]lambda.Var
}

// primExp eta-expands a primitive into a function value.
func (el *Elaborator) primExp(op string) lambda.Exp {
	arity := el.arityOf(op)
	p := el.lg.Fresh()
	n := &primNodes{}
	if arity == 1 {
		n.vars[0] = lambda.Var{LV: p}
		n.args[0] = &n.vars[0]
	} else {
		for i := 0; i < arity; i++ {
			n.vars[i] = lambda.Var{LV: p}
			n.sels[i] = lambda.Select{Idx: i, Rec: &n.vars[i]}
			n.args[i] = &n.sels[i]
		}
	}
	n.prim = lambda.Prim{Op: op, Args: n.args[:arity:arity]}
	n.fn = lambda.Fn{Param: p, Body: &n.prim}
	return &n.fn
}

// expPos extracts a position for diagnostics where available.
func expPos(x ast.Exp) token.Pos {
	switch x := x.(type) {
	case *ast.ConstExp:
		return x.Pos
	case *ast.VarExp:
		return x.Name.Pos
	case *ast.RecordExp:
		return x.Pos
	case *ast.SelectExp:
		return x.Pos
	case *ast.AppExp:
		return expPos(x.Fn)
	case *ast.TypedExp:
		return expPos(x.Exp)
	case *ast.CaseExp:
		return x.Pos
	case *ast.FnExp:
		return x.Pos
	case *ast.LetExp:
		return x.Pos
	case *ast.SeqExp:
		return x.Pos
	case *ast.RaiseExp:
		return x.Pos
	case *ast.ListExp:
		return x.Pos
	case *ast.AndalsoExp:
		return expPos(x.L)
	case *ast.OrelseExp:
		return expPos(x.L)
	case *ast.IfExp:
		return expPos(x.Cond)
	case *ast.WhileExp:
		return expPos(x.Cond)
	case *ast.HandleExp:
		return expPos(x.Exp)
	}
	return token.Pos{}
}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

// elabDecs elaborates a declaration sequence into e, returning the
// code wrapper. sc is the slot context when the sequence is the body of
// a structure or unit (nil inside let).
func (el *Elaborator) elabDecs(decs []ast.Dec, e *env.Env, sc *slotCtx) wrapFn {
	wrap := idWrap
	for _, d := range decs {
		wrap = compose(wrap, el.elabDec(d, e, sc))
	}
	return wrap
}

func (el *Elaborator) elabDec(d ast.Dec, e *env.Env, sc *slotCtx) wrapFn {
	switch d := d.(type) {
	case *ast.ValDec:
		return el.elabValDec(d, e, sc)
	case *ast.FunDec:
		return el.elabFunDec(d, e, sc)
	case *ast.TypeDec:
		el.elabTypeDec(d.Tbs, e)
		return idWrap
	case *ast.DatatypeDec:
		el.elabDatatypeDec(d, e)
		return idWrap
	case *ast.AbstypeDec:
		return el.elabAbstypeDec(d, e, sc)
	case *ast.DatatypeReplDec:
		el.elabDatatypeRepl(d, e)
		return idWrap
	case *ast.ExceptionDec:
		return el.elabExceptionDec(d, e, sc)
	case *ast.LocalDec:
		inner := env.New(e)
		w1 := el.elabDecs(d.Inner, inner, sc)
		outer := env.New(inner)
		w2 := el.elabDecs(d.Outer, outer, sc)
		outer.CopyInto(e)
		return compose(w1, w2)
	case *ast.OpenDec:
		return el.elabOpenDec(d, e, sc)
	case *ast.FixityDec:
		return idWrap
	case *ast.SeqDec:
		return el.elabDecs(d.Decs, e, sc)
	case *ast.StructureDec:
		return el.elabStructureDec(d, e, sc)
	case *ast.SignatureDec:
		el.elabSignatureDec(d, e)
		return idWrap
	case *ast.FunctorDec:
		el.elabFunctorDec(d, e)
		return idWrap
	}
	panic("elab: unknown declaration form")
}

// defineVal installs a value binding with local access and, in slotted
// contexts, an export slot.
func (el *Elaborator) defineVal(e *env.Env, sc *slotCtx, name string, vb *env.ValBind, acc lambda.Exp) {
	el.registerAccess(vb, acc)
	if sc != nil {
		vb.Slot = sc.add(acc, SlotBinding{Name: name, Val: vb})
	} else {
		vb.Slot = -1
	}
	e.DefineVal(name, vb)
}

// elabValDec handles val and val rec.
func (el *Elaborator) elabValDec(d *ast.ValDec, e *env.Env, sc *slotCtx) wrapFn {
	// The explicit type variables must live at the elevated level too,
	// or they can never be generalized.
	el.level++
	el.pushTyvars(d.TyVars)
	el.level--
	defer el.popTyvars()

	anyRec := false
	for _, vb := range d.Vbs {
		if vb.Rec {
			anyRec = true
		}
	}
	if anyRec {
		return el.elabValRec(d, e, sc)
	}

	wrap := idWrap
	for _, vb := range d.Vbs {
		// Both the right-hand side and the pattern's variables live one
		// level up, so generalization back at the outer level can
		// quantify them.
		el.level++
		expTy, expCode := el.elabExp(e, vb.Exp)
		layer := env.New(nil) // staging env for the pattern's bindings
		patTy := el.elabPat(vb.Pat, e, layer)
		el.unify(expPos(vb.Exp), patTy, expTy, "val binding")
		el.level--
		el.checkBinding(patPos(vb.Pat), vb.Pat)

		generalize := isNonExpansive(vb.Exp)
		// Install the pattern's bindings with generalized schemes.
		for _, ent := range layer.Order() {
			pvb, _ := layer.LocalVal(ent.Name)
			if generalize {
				pvb.Scheme = types.Generalize(pvb.Scheme.Body, el.level)
			}
			lv := el.patAccess[pvb]
			el.defineVal(e, sc, ent.Name, pvb, &lambda.Var{LV: lv})
		}

		sv := el.lg.Fresh()
		expCodeCopy := expCode
		pat := vb.Pat
		prev := wrap
		wrap = func(body lambda.Exp) lambda.Exp {
			inner := el.genPat(pat, &lambda.Var{LV: sv}, body, &lambda.Prim{Op: "raiseBind"})
			return prev(&lambda.Let{LV: sv, Bind: expCodeCopy, Body: inner})
		}
	}
	return wrap
}

// elabValRec handles a val rec group: all bindings must be variables
// bound to fn expressions; they are compiled to a single Fix.
func (el *Elaborator) elabValRec(d *ast.ValDec, e *env.Env, sc *slotCtx) wrapFn {
	type recBind struct {
		name string
		vb   *env.ValBind
		lv   lambda.LVar
		fnX  *ast.FnExp
		ty   *types.Var
	}
	var binds []recBind
	recEnv := env.New(e)

	el.level++
	for _, vb := range d.Vbs {
		name, ok := valRecName(vb.Pat)
		if !ok {
			el.fatalf(d.Pos, "val rec pattern must be a variable")
		}
		fnX, ok := vb.Exp.(*ast.FnExp)
		if !ok {
			el.fatalf(d.Pos, "val rec right-hand side must be a fn expression")
		}
		tv := types.NewVar(el.level)
		b := recBind{name: name, vb: &env.ValBind{Scheme: types.MonoScheme(tv), Slot: -1},
			lv: el.lg.Fresh(), fnX: fnX, ty: tv}
		// Constrain by any type annotations on the pattern.
		if tp, ok := vb.Pat.(*ast.TypedPat); ok {
			el.unify(d.Pos, tv, el.elabTy(e, tp.Ty), "val rec constraint")
		}
		binds = append(binds, b)
		recEnv.DefineVal(name, b.vb)
		el.registerAccess(b.vb, &lambda.Var{LV: b.lv})
	}

	names := make([]lambda.LVar, len(binds))
	fns := make([]*lambda.Fn, len(binds))
	for i, b := range binds {
		ty, code := el.elabExp(recEnv, b.fnX)
		el.unify(d.Pos, ty, b.ty, "val rec binding")
		names[i] = b.lv
		fns[i] = code.(*lambda.Fn)
	}
	el.level--

	for _, b := range binds {
		b.vb.Scheme = types.Generalize(b.ty, el.level)
		el.defineVal(e, sc, b.name, b.vb, &lambda.Var{LV: b.lv})
	}

	return func(body lambda.Exp) lambda.Exp {
		return &lambda.Fix{Names: names, Fns: fns, Body: body}
	}
}

func valRecName(p ast.Pat) (string, bool) {
	switch p := p.(type) {
	case *ast.VarPat:
		if !p.Name.IsQualified() {
			return p.Name.Base(), true
		}
	case *ast.TypedPat:
		return valRecName(p.Pat)
	}
	return "", false
}

// elabFunDec handles fun declarations: clausal function definitions
// compiled to a Fix of curried functions over a compiled match.
func (el *Elaborator) elabFunDec(d *ast.FunDec, e *env.Env, sc *slotCtx) wrapFn {
	el.level++
	el.pushTyvars(d.TyVars)
	el.level--
	defer el.popTyvars()

	recEnv := env.New(e)
	type funInfo struct {
		vb *env.ValBind
		lv lambda.LVar
		ty *types.Var
	}
	infos := make([]funInfo, len(d.Fbs))

	el.level++
	for i, fb := range d.Fbs {
		tv := types.NewVar(el.level)
		vb := &env.ValBind{Scheme: types.MonoScheme(tv), Slot: -1}
		infos[i] = funInfo{vb: vb, lv: el.lg.Fresh(), ty: tv}
		recEnv.DefineVal(fb.Name, vb)
		el.registerAccess(vb, &lambda.Var{LV: infos[i].lv})
	}

	names := make([]lambda.LVar, len(d.Fbs))
	fns := make([]*lambda.Fn, len(d.Fbs))
	for i, fb := range d.Fbs {
		fnTy, fnCode := el.elabFunBind(recEnv, &fb, d.Pos)
		// unify, without building its description unless it fails.
		if err := types.Unify(fnTy, infos[i].ty); err != nil {
			el.errorf(d.Pos, "fun binding %s: %v", fb.Name, err)
		}
		names[i] = infos[i].lv
		fns[i] = fnCode
	}
	el.level--

	for i, fb := range d.Fbs {
		infos[i].vb.Scheme = types.Generalize(infos[i].ty, el.level)
		el.defineVal(e, sc, fb.Name, infos[i].vb, &lambda.Var{LV: infos[i].lv})
	}

	return func(body lambda.Exp) lambda.Exp {
		return &lambda.Fix{Names: names, Fns: fns, Body: body}
	}
}

// elabFunBind compiles all clauses of one function.
func (el *Elaborator) elabFunBind(e *env.Env, fb *ast.FunBind, pos token.Pos) (types.Ty, *lambda.Fn) {
	n := len(fb.Clauses[0].Pats)
	for _, cl := range fb.Clauses {
		if len(cl.Pats) != n {
			el.fatalf(pos, "clauses of %s have differing numbers of patterns", fb.Name)
		}
	}

	paramTys := make([]types.Ty, n)
	for i := range paramTys {
		paramTys[i] = types.NewVar(el.level)
	}
	resTy := types.Ty(types.NewVar(el.level))

	params := make([]lambda.LVar, n)
	for i := range params {
		params[i] = el.lg.Fresh()
	}

	// The match scrutinee is the tuple of parameters (or the single
	// parameter).
	var scrutTy types.Ty
	var scrutExp lambda.Exp
	sv := el.lg.Fresh()
	if n == 1 {
		scrutTy = paramTys[0]
		scrutExp = &lambda.Var{LV: sv}
	} else {
		scrutTy = types.Tuple(paramTys...)
		scrutExp = &lambda.Var{LV: sv}
	}

	rules := make([]ast.Rule, len(fb.Clauses))
	for i, cl := range fb.Clauses {
		var pat ast.Pat
		if n == 1 {
			pat = cl.Pats[0]
		} else {
			pat = ast.TuplePat(cl.Pats, pos)
		}
		body := cl.Body
		if cl.ResultTy != nil {
			body = &ast.TypedExp{Exp: body, Ty: cl.ResultTy}
		}
		rules[i] = ast.Rule{Pat: pat, Exp: body}
	}

	matchResTy, matchCode := el.elabMatchChecked(e, rules, scrutTy, scrutExp,
		&lambda.Prim{Op: "raiseMatch"}, pos, true, "fun "+fb.Name)
	el.unify(pos, matchResTy, resTy, "fun result")

	// Assemble: fn p1 => ... fn pn => let sv = (p1,...,pn) in match.
	var scrutBind lambda.Exp
	if n == 1 {
		scrutBind = &lambda.Var{LV: params[0]}
	} else {
		fields := make([]lambda.Exp, n)
		for i, p := range params {
			fields[i] = &lambda.Var{LV: p}
		}
		scrutBind = &lambda.Record{Fields: fields}
	}
	body := lambda.Exp(&lambda.Let{LV: sv, Bind: scrutBind, Body: matchCode})
	for i := n - 1; i >= 0; i-- {
		body = &lambda.Fn{Param: params[i], Body: body}
	}

	ty := resTy
	for i := n - 1; i >= 0; i-- {
		ty = &types.Arrow{From: paramTys[i], To: ty}
	}
	return ty, body.(*lambda.Fn)
}

// elabTypeDec handles type abbreviation declarations.
func (el *Elaborator) elabTypeDec(tbs []ast.TypeBind, e *env.Env) {
	for _, tb := range tbs {
		scope := el.pushTyvars(tb.TyVars)
		vars := make([]*types.Var, len(tb.TyVars))
		for i, n := range tb.TyVars {
			vars[i] = scope.m[n]
		}
		body := el.elabTy(e, tb.Ty)
		el.popTyvars()
		tc := &types.Tycon{
			Stamp: el.sg.Fresh(), Name: tb.Name, Arity: len(tb.TyVars),
			Kind: types.KindAbbrev, Abbrev: types.MakeTyFun(vars, body),
		}
		e.DefineTycon(tb.Name, tc)
	}
}

// elabDatatypeDec handles datatype declarations (with withtype).
func (el *Elaborator) elabDatatypeDec(d *ast.DatatypeDec, e *env.Env) {
	// First create all tycons so constructor types may be recursive
	// across the `and` group.
	tcs := make([]*types.Tycon, len(d.Dbs))
	for i, db := range d.Dbs {
		tcs[i] = &types.Tycon{
			Stamp: el.sg.Fresh(), Name: db.Name, Arity: len(db.TyVars),
			Kind: types.KindData, Eq: true, // refined below
		}
		e.DefineTycon(db.Name, tcs[i])
	}

	// withtype abbreviations see the datatypes.
	if len(d.WithType) > 0 {
		el.elabTypeDec(d.WithType, e)
	}

	for i, db := range d.Dbs {
		tc := tcs[i]
		scope := el.pushTyvars(db.TyVars)
		vars := make([]*types.Var, len(db.TyVars))
		bounds := make([]types.Ty, len(db.TyVars))
		for j, n := range db.TyVars {
			vars[j] = scope.m[n]
			bounds[j] = scope.m[n]
		}
		resTy := &types.Con{Tycon: tc, Args: bounds}

		cons := make([]*types.DataCon, len(db.Cons))
		for j, cb := range db.Cons {
			dc := &types.DataCon{
				Name: cb.Name, Tag: j, Span: len(db.Cons), Tycon: tc,
			}
			var body types.Ty = resTy
			if cb.Ty != nil {
				dc.HasArg = true
				body = &types.Arrow{From: el.elabTy(e, cb.Ty), To: resTy}
			}
			dc.Scheme = types.SchemeOver(vars, body, nil)
			cons[j] = dc
			e.DefineVal(cb.Name, &env.ValBind{Scheme: dc.Scheme, Con: dc, Slot: -1})
		}
		tc.Cons = cons
		el.popTyvars()
	}

	el.refineEquality(tcs)
}

// refineEquality computes, by fixpoint over the recursive group,
// whether each datatype admits equality.
func (el *Elaborator) refineEquality(tcs []*types.Tycon) {
	group := map[*types.Tycon]bool{}
	for _, tc := range tcs {
		group[tc] = true
	}
	changed := true
	for changed {
		changed = false
		for _, tc := range tcs {
			if !tc.Eq {
				continue
			}
			ok := true
			for _, dc := range tc.Cons {
				if !dc.HasArg {
					continue
				}
				arr := dc.Scheme.Body.(*types.Arrow)
				if !eqAdmissible(arr.From, group) {
					ok = false
					break
				}
			}
			if !ok {
				tc.Eq = false
				changed = true
			}
		}
	}
}

// eqAdmissible checks equality admissibility over scheme bodies (Bound
// variables count as equality-admitting, since eqtype propagation is
// checked at instantiation).
func eqAdmissible(t types.Ty, group map[*types.Tycon]bool) bool {
	switch t := types.HeadNormalize(t).(type) {
	case *types.Var, *types.Bound:
		return true
	case *types.Con:
		if t.Tycon.Name == "ref" || t.Tycon.Name == "array" {
			return true
		}
		if in, isGroup := group[t.Tycon]; isGroup {
			if !in {
				return false
			}
		} else if !t.Tycon.Eq {
			return false
		}
		for _, a := range t.Args {
			if !eqAdmissible(a, group) {
				return false
			}
		}
		return true
	case *types.Record:
		for _, a := range t.Types {
			if !eqAdmissible(a, group) {
				return false
			}
		}
		return true
	case *types.Arrow:
		return false
	}
	return false
}

// elabAbstypeDec handles abstype ... with decs end: the datatype is
// concrete inside the body and abstract outside. The same tycon object
// is exported (so the body's value types remain valid) but it loses
// its constructors and equality status once the body is elaborated.
func (el *Elaborator) elabAbstypeDec(d *ast.AbstypeDec, e *env.Env, sc *slotCtx) wrapFn {
	inner := env.New(e)
	el.elabDatatypeDec(&ast.DatatypeDec{Dbs: d.Dbs, WithType: d.WithType, Pos: d.Pos}, inner)

	bodyLayer := env.New(inner)
	wrap := el.elabDecs(d.Body, bodyLayer, sc)
	bodyLayer.CopyInto(e)

	for _, db := range d.Dbs {
		tc, _ := inner.LocalTycon(db.Name)
		tc.Kind = types.KindAbstract
		tc.Eq = false
		tc.Cons = nil
		e.DefineTycon(db.Name, tc)
	}
	for _, tb := range d.WithType {
		if tc, ok := inner.LocalTycon(tb.Name); ok {
			e.DefineTycon(tb.Name, tc)
		}
	}
	return wrap
}

// elabDatatypeRepl handles datatype t = datatype longtycon: rebinds the
// tycon and brings its constructors into scope.
func (el *Elaborator) elabDatatypeRepl(d *ast.DatatypeReplDec, e *env.Env) {
	tc, ok := el.lookupTycon(e, d.Old)
	if !ok {
		el.fatalf(d.Pos, "unbound type constructor %s", d.Old)
	}
	e.DefineTycon(d.Name, tc)
	if tc.Kind == types.KindData {
		for _, dc := range tc.Cons {
			e.DefineVal(dc.Name, &env.ValBind{Scheme: dc.Scheme, Con: dc, Slot: -1})
		}
	}
}

// elabExceptionDec handles exception declarations: generative tag
// creation and aliasing.
func (el *Elaborator) elabExceptionDec(d *ast.ExceptionDec, e *env.Env, sc *slotCtx) wrapFn {
	wrap := idWrap
	for _, eb := range d.Ebs {
		if eb.Alias != nil {
			old, acc, ok := el.lookupVal(e, *eb.Alias)
			if !ok || !old.IsExnCon() {
				el.fatalf(d.Pos, "%s is not an exception constructor", eb.Alias)
			}
			tagAcc := el.exnTagAccess(d.Pos, old, acc)
			nvb := &env.ValBind{Scheme: old.Scheme, Con: old.Con, Slot: -1}
			el.defineVal(e, sc, eb.Name, nvb, tagAcc)
			continue
		}
		dc := &types.DataCon{Name: eb.Name, Tycon: basis.ExnTycon, IsExn: true}
		var scheme *types.Scheme
		if eb.Ty != nil {
			dc.HasArg = true
			argTy := el.elabTy(e, eb.Ty)
			scheme = types.MonoScheme(&types.Arrow{From: argTy, To: basis.Exn()})
		} else {
			scheme = types.MonoScheme(basis.Exn())
		}
		dc.Scheme = scheme
		vb := &env.ValBind{Scheme: scheme, Con: dc, Slot: -1}
		lv := el.lg.Fresh()
		el.defineVal(e, sc, eb.Name, vb, &lambda.Var{LV: lv})
		name := eb.Name
		prev := wrap
		wrap = func(body lambda.Exp) lambda.Exp {
			return prev(&lambda.Let{LV: lv, Bind: &lambda.NewExnTag{Name: name}, Body: body})
		}
	}
	return wrap
}

// elabOpenDec copies a structure's bindings into the current scope,
// re-rooting runtime access through the opened structure's record.
func (el *Elaborator) elabOpenDec(d *ast.OpenDec, e *env.Env, sc *slotCtx) wrapFn {
	wrap := idWrap
	for _, path := range d.Strs {
		sb, acc := el.lookupStrPath(e, path, path.Parts)
		lv := el.lg.Fresh()
		accCopy := acc
		prev := wrap
		wrap = func(body lambda.Exp) lambda.Exp {
			return prev(&lambda.Let{LV: lv, Bind: accCopy, Body: body})
		}
		base := &lambda.Var{LV: lv}
		for _, ent := range sb.Str.Env.Order() {
			switch ent.NS {
			case env.NSVal:
				old, _ := sb.Str.Env.LocalVal(ent.Name)
				if old.Slot < 0 {
					// Constructors and primitives need no re-rooting.
					e.DefineVal(ent.Name, old)
					continue
				}
				nvb := &env.ValBind{Scheme: old.Scheme, Con: old.Con, Slot: -1, Prim: old.Prim}
				el.defineVal(e, sc, ent.Name, nvb, &lambda.Select{Idx: old.Slot, Rec: base})
			case env.NSTycon:
				tc, _ := sb.Str.Env.LocalTycon(ent.Name)
				e.DefineTycon(ent.Name, tc)
			case env.NSStr:
				old, _ := sb.Str.Env.LocalStr(ent.Name)
				nsb := &env.StrBind{Str: old.Str, Slot: -1}
				accE := lambda.Exp(&lambda.Select{Idx: old.Slot, Rec: base})
				el.registerAccess(nsb, accE)
				if sc != nil {
					nsb.Slot = sc.add(accE, SlotBinding{Name: ent.Name, Str: nsb})
				}
				e.DefineStr(ent.Name, nsb)
			case env.NSSig:
				old, _ := sb.Str.Env.LocalSig(ent.Name)
				e.DefineSig(ent.Name, old)
			case env.NSFct:
				old, _ := sb.Str.Env.LocalFct(ent.Name)
				e.DefineFct(ent.Name, old)
			}
		}
	}
	return wrap
}

// isNonExpansive implements the value restriction's syntactic test.
func isNonExpansive(x ast.Exp) bool {
	switch x := x.(type) {
	case *ast.ConstExp, *ast.VarExp, *ast.FnExp, *ast.SelectExp:
		return true
	case *ast.RecordExp:
		for _, f := range x.Fields {
			if !isNonExpansive(f.Exp) {
				return false
			}
		}
		return true
	case *ast.ListExp:
		for _, sub := range x.Exps {
			if !isNonExpansive(sub) {
				return false
			}
		}
		return true
	case *ast.TypedExp:
		return isNonExpansive(x.Exp)
	case *ast.AppExp:
		// Constructor applications to non-expansive arguments are
		// non-expansive — except ref.
		if v, ok := x.Fn.(*ast.VarExp); ok {
			if v.Name.Base() == "ref" {
				return false
			}
			return isConName(v.Name.Base()) && isNonExpansive(x.Arg)
		}
		return false
	}
	return false
}

// isConName approximates "is a constructor use" syntactically for the
// value restriction; a capitalized name, ::, or the standard basis
// constructors. (False negatives are safe: they just forgo
// generalization.)
func isConName(name string) bool {
	if name == "::" || name == "nil" || name == "true" || name == "false" ||
		name == "SOME" || name == "NONE" {
		return true
	}
	return name != "" && name[0] >= 'A' && name[0] <= 'Z'
}
