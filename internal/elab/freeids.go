package elab

import (
	"repro/internal/ast"
)

// FreeIDs is the set of unqualified identifiers a piece of syntax may
// reference from its enclosing scope, per namespace, in first-reference
// order. Qualified references contribute their root structure name.
//
// The analysis is conservative: a name that *might* be free (for
// example one that could be bound by an `open`) is included; consumers
// (closure trimming, the IRM dependency analyzer) skip names that do
// not resolve. Extra entries cost hash precision, never soundness.
type FreeIDs struct {
	ValOrder []string
	// PatOnly holds the names of ValOrder whose every free reference is
	// a variable pattern. Such a name refers to the enclosing scope only
	// if it is a constructor there; otherwise the pattern binds it.
	PatOnly    map[string]bool
	TyconOrder []string
	StrOrder   []string
	SigOrder   []string
	FctOrder   []string

	vals, tycons, strs, sigs, fcts map[string]bool
}

func newFreeIDs() *FreeIDs {
	return &FreeIDs{
		vals: map[string]bool{}, tycons: map[string]bool{},
		strs: map[string]bool{}, sigs: map[string]bool{}, fcts: map[string]bool{},
	}
}

// frame is one lexical scope of bound names. Its maps are made by the
// first bind into them: most scopes bind only values, or nothing.
type frame struct {
	vals, tycons, strs map[string]bool
}

// bind adds n to the set *m, making the set on first use.
func bind(m *map[string]bool, n string) {
	if *m == nil {
		*m = map[string]bool{}
	}
	(*m)[n] = true
}

// fwalker computes free identifiers with a scope stack.
type fwalker struct {
	out    *FreeIDs
	scopes []*frame
}

func newFwalker() *fwalker {
	return &fwalker{out: newFreeIDs(), scopes: []*frame{&frame{}}}
}

func (w *fwalker) push() { w.scopes = append(w.scopes, &frame{}) }
func (w *fwalker) pop()  { w.scopes = w.scopes[:len(w.scopes)-1] }

func (w *fwalker) top() *frame { return w.scopes[len(w.scopes)-1] }

func (w *fwalker) bindVal(n string)   { bind(&w.top().vals, n) }
func (w *fwalker) bindTycon(n string) { bind(&w.top().tycons, n) }
func (w *fwalker) bindStr(n string)   { bind(&w.top().strs, n) }

func (w *fwalker) boundVal(n string) bool {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if w.scopes[i].vals[n] {
			return true
		}
	}
	return false
}

func (w *fwalker) boundTycon(n string) bool {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if w.scopes[i].tycons[n] {
			return true
		}
	}
	return false
}

func (w *fwalker) boundStr(n string) bool {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if w.scopes[i].strs[n] {
			return true
		}
	}
	return false
}

func (w *fwalker) refVal(id ast.LongID) { w.ref(id, false) }

// ref records a value reference; pat marks a variable pattern (see
// FreeIDs.PatOnly).
func (w *fwalker) ref(id ast.LongID, pat bool) {
	if id.IsQualified() {
		w.refStrName(id.Parts[0])
		return
	}
	n := id.Base()
	if w.boundVal(n) {
		return
	}
	if w.out.vals[n] {
		if !pat {
			delete(w.out.PatOnly, n)
		}
		return
	}
	w.out.vals[n] = true
	w.out.ValOrder = append(w.out.ValOrder, n)
	if pat {
		bind(&w.out.PatOnly, n)
	}
}

func (w *fwalker) refTycon(id ast.LongID) {
	if id.IsQualified() {
		w.refStrName(id.Parts[0])
		return
	}
	n := id.Base()
	if w.boundTycon(n) || w.out.tycons[n] {
		return
	}
	w.out.tycons[n] = true
	w.out.TyconOrder = append(w.out.TyconOrder, n)
}

func (w *fwalker) refStrName(n string) {
	if w.boundStr(n) || w.out.strs[n] {
		return
	}
	w.out.strs[n] = true
	w.out.StrOrder = append(w.out.StrOrder, n)
}

func (w *fwalker) refSig(n string) {
	if w.out.sigs[n] {
		return
	}
	w.out.sigs[n] = true
	w.out.SigOrder = append(w.out.SigOrder, n)
}

func (w *fwalker) refFct(n string) {
	if w.out.fcts[n] {
		return
	}
	w.out.fcts[n] = true
	w.out.FctOrder = append(w.out.FctOrder, n)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

// FreeOfDecs computes the free identifiers of a declaration sequence.
func FreeOfDecs(decs []ast.Dec) *FreeIDs {
	w := newFwalker()
	for _, d := range decs {
		w.dec(d)
	}
	return w.out
}

// FreeOfSigExp computes the free identifiers of a signature expression.
func FreeOfSigExp(se ast.SigExp) *FreeIDs {
	w := newFwalker()
	w.sigExp(se)
	return w.out
}

// FreeOfFunctor computes the free identifiers of a functor binding:
// parameter signature, result signature, and body, minus the parameter.
func FreeOfFunctor(fb *ast.FunctorBind) *FreeIDs {
	w := newFwalker()
	w.sigExp(fb.ParamSig)
	w.push()
	w.bindStr(fb.ParamName)
	if fb.ResultSig != nil {
		w.sigExp(fb.ResultSig)
	}
	w.strExp(fb.Body)
	w.pop()
	return w.out
}

// ---------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------

func (w *fwalker) dec(d ast.Dec) {
	switch d := d.(type) {
	case *ast.ValDec:
		for _, vb := range d.Vbs {
			if vb.Rec {
				// Recursive: pattern variables visible in the body.
				w.pat(vb.Pat, true)
				w.exp(vb.Exp)
			} else {
				w.exp(vb.Exp)
				w.pat(vb.Pat, true)
			}
		}
	case *ast.FunDec:
		for _, fb := range d.Fbs {
			w.bindVal(fb.Name)
		}
		for _, fb := range d.Fbs {
			for _, cl := range fb.Clauses {
				w.push()
				for _, p := range cl.Pats {
					w.pat(p, true)
				}
				if cl.ResultTy != nil {
					w.ty(cl.ResultTy)
				}
				w.exp(cl.Body)
				w.pop()
			}
		}
	case *ast.TypeDec:
		for _, tb := range d.Tbs {
			w.ty(tb.Ty)
			w.bindTycon(tb.Name)
		}
	case *ast.DatatypeDec:
		for _, db := range d.Dbs {
			w.bindTycon(db.Name)
		}
		for _, tb := range d.WithType {
			w.ty(tb.Ty)
			w.bindTycon(tb.Name)
		}
		for _, db := range d.Dbs {
			for _, cb := range db.Cons {
				if cb.Ty != nil {
					w.ty(cb.Ty)
				}
				w.bindVal(cb.Name)
			}
		}
	case *ast.AbstypeDec:
		for _, db := range d.Dbs {
			w.bindTycon(db.Name)
		}
		for _, tb := range d.WithType {
			w.ty(tb.Ty)
			w.bindTycon(tb.Name)
		}
		for _, db := range d.Dbs {
			for _, cb := range db.Cons {
				if cb.Ty != nil {
					w.ty(cb.Ty)
				}
				w.bindVal(cb.Name)
			}
		}
		for _, sub := range d.Body {
			w.dec(sub)
		}
	case *ast.DatatypeReplDec:
		w.refTycon(d.Old)
		w.bindTycon(d.Name)
	case *ast.ExceptionDec:
		for _, eb := range d.Ebs {
			if eb.Ty != nil {
				w.ty(eb.Ty)
			}
			if eb.Alias != nil {
				w.refVal(*eb.Alias)
			}
			w.bindVal(eb.Name)
		}
	case *ast.LocalDec:
		w.push()
		for _, sub := range d.Inner {
			w.dec(sub)
		}
		for _, sub := range d.Outer {
			w.dec(sub)
		}
		w.pop()
		// Outer bindings remain visible: rebind them in the enclosing
		// frame by re-walking binders only.
		for _, sub := range d.Outer {
			w.rebind(sub)
		}
	case *ast.OpenDec:
		for _, s := range d.Strs {
			w.refStrName(s.Parts[0])
		}
	case *ast.FixityDec:
	case *ast.SeqDec:
		for _, sub := range d.Decs {
			w.dec(sub)
		}
	case *ast.StructureDec:
		for _, sb := range d.Sbs {
			if sb.Sig != nil {
				w.sigExp(sb.Sig)
			}
			w.strExp(sb.Str)
		}
		for _, sb := range d.Sbs {
			w.bindStr(sb.Name)
		}
	case *ast.SignatureDec:
		for _, sb := range d.Sbs {
			w.sigExp(sb.Sig)
			w.refSigBind(sb.Name)
		}
	case *ast.FunctorDec:
		for _, fb := range d.Fbs {
			w.sigExp(fb.ParamSig)
			w.push()
			w.bindStr(fb.ParamName)
			if fb.ResultSig != nil {
				w.sigExp(fb.ResultSig)
			}
			w.strExp(fb.Body)
			w.pop()
		}
	}
}

// refSigBind marks a signature name as locally bound (a later reference
// is not free). Signature bindings only occur at top level, so a simple
// "seen" suppression suffices.
func (w *fwalker) refSigBind(name string) {
	w.out.sigs[name] = w.out.sigs[name] // no-op placeholder for clarity
	// Record the binding by pre-marking the name as seen without adding
	// it to the order (it is not free).
	if !w.out.sigs[name] {
		w.out.sigs[name] = true
		// Not appended to SigOrder: bound, not free.
	}
}

// rebind re-applies only the binding effect of a declaration (used for
// local..in..end whose outer bindings escape).
func (w *fwalker) rebind(d ast.Dec) {
	switch d := d.(type) {
	case *ast.ValDec:
		for _, vb := range d.Vbs {
			w.patBindOnly(vb.Pat)
		}
	case *ast.FunDec:
		for _, fb := range d.Fbs {
			w.bindVal(fb.Name)
		}
	case *ast.TypeDec:
		for _, tb := range d.Tbs {
			w.bindTycon(tb.Name)
		}
	case *ast.DatatypeDec:
		for _, db := range d.Dbs {
			w.bindTycon(db.Name)
			for _, cb := range db.Cons {
				w.bindVal(cb.Name)
			}
		}
		for _, tb := range d.WithType {
			w.bindTycon(tb.Name)
		}
	case *ast.AbstypeDec:
		for _, db := range d.Dbs {
			w.bindTycon(db.Name)
		}
		for _, sub := range d.Body {
			w.rebind(sub)
		}
	case *ast.DatatypeReplDec:
		w.bindTycon(d.Name)
	case *ast.ExceptionDec:
		for _, eb := range d.Ebs {
			w.bindVal(eb.Name)
		}
	case *ast.LocalDec:
		for _, sub := range d.Outer {
			w.rebind(sub)
		}
	case *ast.SeqDec:
		for _, sub := range d.Decs {
			w.rebind(sub)
		}
	case *ast.StructureDec:
		for _, sb := range d.Sbs {
			w.bindStr(sb.Name)
		}
	}
}

func (w *fwalker) patBindOnly(p ast.Pat) {
	switch p := p.(type) {
	case *ast.VarPat:
		if !p.Name.IsQualified() {
			w.bindVal(p.Name.Base())
		}
	case *ast.ConPat:
		w.patBindOnly(p.Arg)
	case *ast.RecordPat:
		for _, f := range p.Fields {
			w.patBindOnly(f.Pat)
		}
	case *ast.AsPat:
		w.bindVal(p.Name)
		w.patBindOnly(p.Pat)
	case *ast.TypedPat:
		w.patBindOnly(p.Pat)
	}
}

// pat walks a pattern; bind controls whether variables are bound (they
// are also conservatively counted as possible constructor references).
func (w *fwalker) pat(p ast.Pat, bind bool) {
	switch p := p.(type) {
	case *ast.WildPat, *ast.ConstPat:
	case *ast.VarPat:
		// Could be a constructor reference; record before binding.
		w.ref(p.Name, true)
		if bind && !p.Name.IsQualified() {
			w.bindVal(p.Name.Base())
		}
	case *ast.ConPat:
		w.refVal(p.Con)
		w.pat(p.Arg, bind)
	case *ast.RecordPat:
		for _, f := range p.Fields {
			w.pat(f.Pat, bind)
		}
	case *ast.AsPat:
		if bind {
			w.bindVal(p.Name)
		}
		w.pat(p.Pat, bind)
	case *ast.TypedPat:
		w.pat(p.Pat, bind)
		w.ty(p.Ty)
	}
}

func (w *fwalker) exp(x ast.Exp) {
	switch x := x.(type) {
	case *ast.ConstExp, *ast.SelectExp:
	case *ast.VarExp:
		w.refVal(x.Name)
	case *ast.RecordExp:
		for _, f := range x.Fields {
			w.exp(f.Exp)
		}
	case *ast.AppExp:
		w.exp(x.Fn)
		w.exp(x.Arg)
	case *ast.TypedExp:
		w.exp(x.Exp)
		w.ty(x.Ty)
	case *ast.AndalsoExp:
		w.exp(x.L)
		w.exp(x.R)
	case *ast.OrelseExp:
		w.exp(x.L)
		w.exp(x.R)
	case *ast.IfExp:
		w.exp(x.Cond)
		w.exp(x.Then)
		w.exp(x.Else)
	case *ast.WhileExp:
		w.exp(x.Cond)
		w.exp(x.Body)
	case *ast.CaseExp:
		w.exp(x.Exp)
		w.rules(x.Rules)
	case *ast.FnExp:
		w.rules(x.Rules)
	case *ast.LetExp:
		w.push()
		for _, d := range x.Decs {
			w.dec(d)
		}
		w.exp(x.Body)
		w.pop()
	case *ast.SeqExp:
		for _, sub := range x.Exps {
			w.exp(sub)
		}
	case *ast.RaiseExp:
		w.exp(x.Exp)
	case *ast.HandleExp:
		w.exp(x.Exp)
		w.rules(x.Rules)
	case *ast.ListExp:
		for _, sub := range x.Exps {
			w.exp(sub)
		}
	}
}

func (w *fwalker) rules(rules []ast.Rule) {
	for _, r := range rules {
		w.push()
		w.pat(r.Pat, true)
		w.exp(r.Exp)
		w.pop()
	}
}

func (w *fwalker) ty(t ast.Ty) {
	switch t := t.(type) {
	case *ast.VarTy:
	case *ast.ConTy:
		for _, a := range t.Args {
			w.ty(a)
		}
		w.refTycon(t.Con)
	case *ast.RecordTy:
		for _, f := range t.Fields {
			w.ty(f.Ty)
		}
	case *ast.ArrowTy:
		w.ty(t.From)
		w.ty(t.To)
	}
}

func (w *fwalker) strExp(se ast.StrExp) {
	switch se := se.(type) {
	case *ast.StructStrExp:
		w.push()
		for _, d := range se.Decs {
			w.dec(d)
		}
		w.pop()
	case *ast.PathStrExp:
		w.refStrName(se.Path.Parts[0])
	case *ast.AppStrExp:
		w.refFct(se.Functor)
		w.strExp(se.Arg)
	case *ast.ConstraintStrExp:
		w.strExp(se.Str)
		w.sigExp(se.Sig)
	case *ast.LetStrExp:
		w.push()
		for _, d := range se.Decs {
			w.dec(d)
		}
		w.strExp(se.Body)
		w.pop()
	}
}

func (w *fwalker) sigExp(se ast.SigExp) {
	switch se := se.(type) {
	case *ast.SigSigExp:
		w.push()
		for _, spec := range se.Specs {
			w.spec(spec)
		}
		w.pop()
	case *ast.NameSigExp:
		w.refSig(se.Name)
	case *ast.WhereSigExp:
		w.sigExp(se.Sig)
		w.ty(se.Ty)
	}
}

func (w *fwalker) spec(spec ast.Spec) {
	switch spec := spec.(type) {
	case *ast.ValSpec:
		w.ty(spec.Ty)
	case *ast.TypeSpec:
		if spec.Def != nil {
			w.ty(spec.Def)
		}
		w.bindTycon(spec.Name)
	case *ast.DatatypeSpec:
		for _, db := range spec.Dbs {
			w.bindTycon(db.Name)
		}
		for _, db := range spec.Dbs {
			for _, cb := range db.Cons {
				if cb.Ty != nil {
					w.ty(cb.Ty)
				}
			}
		}
	case *ast.ExceptionSpec:
		if spec.Ty != nil {
			w.ty(spec.Ty)
		}
	case *ast.StructureSpec:
		w.sigExp(spec.Sig)
		w.bindStr(spec.Name)
	case *ast.IncludeSpec:
		w.sigExp(spec.Sig)
	case *ast.SharingSpec:
	}
}
