package elab

import (
	"repro/internal/ast"
	"repro/internal/basis"
	"repro/internal/env"
	"repro/internal/lambda"
	"repro/internal/token"
	"repro/internal/types"
)

// ---------------------------------------------------------------------
// Match elaboration
// ---------------------------------------------------------------------

// elabMatchChecked type-checks and compiles a match (rule list)
// against a scrutinee of type scrutTy located at scrutExp. defaultCode
// runs when no rule matches. Rules are compiled back-to-front, each
// failing into a thunk invoking the remainder. Match-analysis warnings
// are emitted when what is non-empty (checkExh selects exhaustiveness
// checking; handlers re-raise by design so they pass false).
func (el *Elaborator) elabMatchChecked(e *env.Env, rules []ast.Rule, scrutTy types.Ty,
	scrutExp lambda.Exp, defaultCode lambda.Exp,
	pos token.Pos, checkExh bool, what string) (types.Ty, lambda.Exp) {

	resTy := types.Ty(types.NewVar(el.level))

	type compiled struct {
		pat  ast.Pat
		body lambda.Exp
	}
	comp := make([]compiled, len(rules))
	for i, r := range rules {
		layer := env.New(e)
		patTy := el.elabPat(r.Pat, e, layer)
		el.unify(patPos(r.Pat), patTy, scrutTy, "pattern")
		// Install pattern variables for the rule body.
		for _, ent := range layer.Order() {
			pvb, _ := layer.LocalVal(ent.Name)
			el.registerAccess(pvb, &lambda.Var{LV: el.patAccess[pvb]})
		}
		bodyTy, bodyCode := el.elabExp(layer, r.Exp)
		el.unify(expPos(r.Exp), bodyTy, resTy, "match rule result")
		comp[i] = compiled{pat: r.Pat, body: bodyCode}
	}

	if what != "" {
		el.checkMatch(pos, rules, checkExh, what)
	}

	code := defaultCode
	for i := len(comp) - 1; i >= 0; i-- {
		k := el.lg.Fresh()
		dummy := el.lg.Fresh()
		n := &ruleNodes{}
		n.k = lambda.Var{LV: k}
		n.fail = lambda.App{Fn: &n.k, Arg: lambda.Unit()}
		test := el.genPat(comp[i].pat, scrutExp, comp[i].body, &n.fail)
		n.fn = lambda.Fn{Param: dummy, Body: code}
		n.let = lambda.Let{LV: k, Bind: &n.fn, Body: test}
		code = &n.let
	}
	return resTy, code
}

// ruleNodes holds the nodes that chain one match rule to the next,
// let k = fn _ => <next rules> in <test, calling k () on failure>, so
// that they are one allocation.
type ruleNodes struct {
	let  lambda.Let
	fn   lambda.Fn
	fail lambda.App
	k    lambda.Var
}

func patPos(p ast.Pat) token.Pos {
	switch p := p.(type) {
	case *ast.WildPat:
		return p.Pos
	case *ast.VarPat:
		return p.Name.Pos
	case *ast.ConstPat:
		return p.Pos
	case *ast.ConPat:
		return p.Con.Pos
	case *ast.RecordPat:
		return p.Pos
	case *ast.AsPat:
		return p.Pos
	case *ast.TypedPat:
		return patPos(p.Pat)
	}
	return token.Pos{}
}

// ---------------------------------------------------------------------
// Pattern typing
// ---------------------------------------------------------------------

// elabPat types a pattern against e, defining its variables into layer
// and recording constructor resolutions for genPat.
func (el *Elaborator) elabPat(p ast.Pat, e *env.Env, layer *env.Env) types.Ty {
	switch p := p.(type) {
	case *ast.WildPat:
		return types.NewVar(el.level)

	case *ast.VarPat:
		// A name that resolves to a constructor is a constructor
		// pattern; otherwise it binds a fresh variable. Qualified names
		// must be constructors.
		vb, acc, found := el.lookupVal(e, p.Name)
		if found && vb.Con != nil {
			if vb.Con.HasArg {
				el.errorf(p.Name.Pos, "constructor %s requires an argument pattern", p.Name)
				return types.NewVar(el.level)
			}
			info := &conInfo{vb: vb}
			if vb.IsExnCon() {
				info.tag = el.exnTagAccess(p.Name.Pos, vb, acc)
			}
			el.patCon[p] = info
			return types.Instantiate(vb.Scheme, el.level)
		}
		if p.Name.IsQualified() {
			el.fatalf(p.Name.Pos, "unbound constructor %s in pattern", p.Name)
		}
		return el.bindPatVar(p, p.Name.Base(), layer)

	case *ast.ConstPat:
		switch p.Kind {
		case token.INT:
			return basis.Int()
		case token.WORD:
			return basis.Word()
		case token.STRING:
			return basis.String()
		case token.CHAR:
			return basis.Char()
		}
		el.errorf(p.Pos, "real constants are not allowed in patterns")
		return types.NewVar(el.level)

	case *ast.ConPat:
		vb, acc, found := el.lookupVal(e, p.Con)
		if !found || vb.Con == nil {
			el.fatalf(p.Con.Pos, "unbound constructor %s in pattern", p.Con)
		}
		if !vb.Con.HasArg {
			el.errorf(p.Con.Pos, "constructor %s takes no argument", p.Con)
			return types.NewVar(el.level)
		}
		info := &conInfo{vb: vb}
		if vb.IsExnCon() {
			info.tag = el.exnTagAccess(p.Con.Pos, vb, acc)
		}
		el.patCon[p] = info
		conTy := types.Instantiate(vb.Scheme, el.level)
		arr, ok := types.HeadNormalize(conTy).(*types.Arrow)
		if !ok {
			el.fatalf(p.Con.Pos, "constructor %s has non-function type (internal)", p.Con)
		}
		argTy := el.elabPat(p.Arg, e, layer)
		el.unify(p.Con.Pos, argTy, arr.From, "constructor argument pattern")
		return arr.To

	case *ast.RecordPat:
		if p.Flexible {
			v := types.NewVar(el.level)
			v.Flex = map[string]types.Ty{}
			for _, f := range p.Fields {
				v.Flex[f.Label] = el.elabPat(f.Pat, e, layer)
			}
			el.patRecTy[p] = v
			return v
		}
		labels := fieldLabels(len(p.Fields), func(i int) string { return p.Fields[i].Label })
		tys := make([]types.Ty, len(p.Fields))
		for i, f := range p.Fields {
			tys[i] = el.elabPat(f.Pat, e, layer)
		}
		rec, err := types.NewRecord(labels, tys)
		if err != nil {
			el.errorf(p.Pos, "%v", err)
			return types.NewVar(el.level)
		}
		el.patRecTy[p] = rec
		return rec

	case *ast.AsPat:
		innerTy := el.elabPat(p.Pat, e, layer)
		varTy := el.bindPatVarAt(p, p.Name, layer)
		el.unify(p.Pos, varTy, innerTy, "layered pattern")
		return innerTy

	case *ast.TypedPat:
		t := el.elabPat(p.Pat, e, layer)
		want := el.elabTy(e, p.Ty)
		el.unify(patPos(p.Pat), t, want, "pattern type constraint")
		return want
	}
	panic("elab: unknown pattern form")
}

// bindPatVar introduces a fresh pattern variable for a VarPat node.
func (el *Elaborator) bindPatVar(node *ast.VarPat, name string, layer *env.Env) types.Ty {
	return el.bindPatVarAt(node, name, layer)
}

// bindPatVarAt introduces a pattern variable keyed by an arbitrary AST
// node (VarPat or AsPat).
func (el *Elaborator) bindPatVarAt(node ast.Pat, name string, layer *env.Env) types.Ty {
	ty := types.NewVar(el.level)
	vb := &env.ValBind{Scheme: types.MonoScheme(ty), Slot: -1}
	lv := el.lg.Fresh()
	el.patAccess[vb] = lv
	el.patLVFor(node, vb)
	layer.DefineVal(name, vb)
	return ty
}

// patBound maps pattern AST nodes to the binding they introduce.
func (el *Elaborator) patLVFor(node ast.Pat, vb *env.ValBind) {
	if el.patBound == nil {
		el.patBound = map[ast.Pat]*env.ValBind{}
	}
	el.patBound[node] = vb
}

// ---------------------------------------------------------------------
// Pattern code generation
// ---------------------------------------------------------------------

// genPat compiles a pattern test: succeed into succ, fall through to
// fail. root locates the value being matched.
func (el *Elaborator) genPat(p ast.Pat, root, succ, fail lambda.Exp) lambda.Exp {
	switch p := p.(type) {
	case *ast.WildPat:
		return succ

	case *ast.VarPat:
		if info, ok := el.patCon[p]; ok {
			return el.genConTest(info, nil, root, succ, fail)
		}
		vb := el.patBound[p]
		return &lambda.Let{LV: el.patAccess[vb], Bind: root, Body: succ}

	case *ast.ConstPat:
		return el.genConstTest(p, root, succ, fail)

	case *ast.ConPat:
		info := el.patCon[p]
		if info == nil {
			// The pattern was ill-formed (already reported); compile to
			// an always-failing test so codegen can proceed.
			return fail
		}
		return el.genConTest(info, p.Arg, root, succ, fail)

	case *ast.RecordPat:
		return el.genRecordPat(p, root, succ, fail)

	case *ast.AsPat:
		vb := el.patBound[p]
		lv := el.patAccess[vb]
		inner := el.genPat(p.Pat, &lambda.Var{LV: lv}, succ, fail)
		return &lambda.Let{LV: lv, Bind: root, Body: inner}

	case *ast.TypedPat:
		return el.genPat(p.Pat, root, succ, fail)
	}
	panic("elab: genPat: unknown pattern")
}

// bindRoot ensures a root expression is evaluated once.
func (el *Elaborator) bindRoot(root lambda.Exp, k func(lambda.Exp) lambda.Exp) lambda.Exp {
	if v, ok := root.(*lambda.Var); ok {
		return k(v)
	}
	lv := el.lg.Fresh()
	return &lambda.Let{LV: lv, Bind: root, Body: k(&lambda.Var{LV: lv})}
}

// genConTest compiles a constructor test (datatype or exception), then
// descends into the argument pattern if any.
func (el *Elaborator) genConTest(info *conInfo, arg ast.Pat, root, succ, fail lambda.Exp) lambda.Exp {
	dc := info.vb.Con
	if dc.IsExn {
		return el.bindRoot(root, func(r lambda.Exp) lambda.Exp {
			inner := succ
			if arg != nil {
				inner = el.genPat(arg, &lambda.ExnDecon{Exp: r}, succ, fail)
			}
			return &lambda.If{
				Cond: &lambda.Prim{Op: lambda.OpExnMatches, Args: []lambda.Exp{r, info.tag}},
				Then: inner,
				Else: fail,
			}
		})
	}
	return el.bindRoot(root, func(r lambda.Exp) lambda.Exp {
		inner := succ
		if arg != nil {
			inner = el.genPat(arg, &lambda.Decon{Exp: r}, succ, fail)
		}
		sw := &lambda.Switch{
			Kind:  lambda.SwitchConTag,
			Scrut: r,
			Span:  dc.Span,
			Cases: []lambda.Case{{Tag: dc.Tag, Body: inner}},
		}
		if dc.Span != 1 {
			sw.Default = fail
		}
		return sw
	})
}

// genConstTest compiles a special-constant test.
func (el *Elaborator) genConstTest(p *ast.ConstPat, root, succ, fail lambda.Exp) lambda.Exp {
	var kind lambda.SwitchKind
	cs := lambda.Case{Body: succ}
	switch p.Kind {
	case token.INT:
		kind = lambda.SwitchInt
		cs.IntKey = el.parseIntLit(p.Pos, p.Text)
	case token.WORD:
		kind = lambda.SwitchWord
		cs.WordKey = el.parseWordLit(p.Pos, p.Text)
	case token.STRING:
		kind = lambda.SwitchStr
		cs.StrKey = p.Text
	case token.CHAR:
		kind = lambda.SwitchChar
		cs.StrKey = p.Text
	}
	return &lambda.Switch{Kind: kind, Scrut: root, Cases: []lambda.Case{cs}, Default: fail}
}

// genRecordPat compiles record/tuple patterns. If the record type is
// already resolved the field indices are known; otherwise each field
// select is deferred for end-of-unit patching.
//
// A root that is a record of variables (elabFunBind's tuple of curried
// parameters) is virtual: each field resolves to a fresh node for its
// variable, and the record is never built or selected from.
func (el *Elaborator) genRecordPat(p *ast.RecordPat, root, succ, fail lambda.Exp) lambda.Exp {
	recTy := el.patRecTy[p]
	resolved, _ := types.HeadNormalize(recTy).(*types.Record)
	vr := virtualRoot(root)
	if resolved == nil || vr != nil && len(vr.Fields) != len(resolved.Labels) {
		vr = nil
	}
	match := func(r lambda.Exp) lambda.Exp {
		code := succ
		for i := len(p.Fields) - 1; i >= 0; i-- {
			f := p.Fields[i]
			idx := -1
			if resolved != nil {
				for j, l := range resolved.Labels {
					if l == f.Label {
						idx = j
						break
					}
				}
			}
			var field lambda.Exp
			if vr != nil {
				field = &lambda.Var{LV: vr.Fields[idx].(*lambda.Var).LV}
			} else {
				sel := &lambda.Select{Idx: idx, Rec: r}
				if idx < 0 {
					el.pendingSelects = append(el.pendingSelects, &pendingSelect{
						node: sel, recTy: recTy, label: f.Label, pos: p.Pos,
					})
				}
				field = sel
			}
			code = el.genPat(f.Pat, field, code, fail)
		}
		return code
	}
	if vr != nil {
		return match(vr)
	}
	return el.bindRoot(root, match)
}

// virtualRoot returns root when it is a record of variables, and nil
// otherwise.
func virtualRoot(root lambda.Exp) *lambda.Record {
	rec, ok := root.(*lambda.Record)
	if !ok || len(rec.Fields) == 0 {
		return nil
	}
	for _, f := range rec.Fields {
		if _, ok := f.(*lambda.Var); !ok {
			return nil
		}
	}
	return rec
}
