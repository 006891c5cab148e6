package pickle

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/env"
	"repro/internal/lambda"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/token"
	"repro/internal/types"
)

var unitA = pid.HashString("unit-A")
var unitB = pid.HashString("unit-B")

func permanent(origin pid.Pid, idx int64) stamps.Stamp {
	return stamps.Stamp{Origin: origin, Index: idx}
}

// mkTycon builds a permanent int-like tycon owned by origin.
func mkTycon(name string, origin pid.Pid, idx int64) *types.Tycon {
	return &types.Tycon{
		Stamp: permanent(origin, idx), Name: name, Kind: types.KindPrim, Eq: true,
	}
}

// pickleEnv dehydrates e as owned by owner.
func pickleEnv(t *testing.T, e *env.Env, owner pid.Pid) []byte {
	t.Helper()
	p := NewPickler(owner)
	p.Env(e)
	if err := p.Err(); err != nil {
		t.Fatalf("pickle: %v", err)
	}
	return p.Bytes()
}

// unpickleEnv rehydrates with the given context index.
func unpickleEnv(t *testing.T, data []byte, ix *Index) *env.Env {
	t.Helper()
	u := NewUnpickler(data, ix)
	e := u.Env()
	if err := u.Err(); err != nil {
		t.Fatalf("unpickle: %v", err)
	}
	return e
}

func TestEnvRoundTrip(t *testing.T) {
	intT := mkTycon("int", unitA, 1)
	e := env.New(nil)
	e.DefineTycon("int", intT)
	e.DefineVal("x", &env.ValBind{
		Scheme: types.MonoScheme(&types.Con{Tycon: intT}),
		Slot:   0, ExportPid: unitA.Plus(1),
	})

	data := pickleEnv(t, e, unitA)
	out := unpickleEnv(t, data, NewIndex())

	vb, ok := out.LocalVal("x")
	if !ok {
		t.Fatal("x lost")
	}
	if vb.Slot != 0 || vb.ExportPid != unitA.Plus(1) {
		t.Error("valbind fields")
	}
	tc, ok := out.LocalTycon("int")
	if !ok || tc.Stamp != intT.Stamp || tc.Name != "int" {
		t.Error("tycon fields")
	}
	// The type inside the scheme must reference the same rehydrated
	// tycon object (sharing within the pickle).
	con := vb.Scheme.Body.(*types.Con)
	if con.Tycon != tc {
		t.Error("within-pickle sharing broken")
	}
}

func TestStubResolution(t *testing.T) {
	// Unit B's env references unit A's tycon: it must pickle as a stub
	// and rehydrate to the context's object.
	intT := mkTycon("int", unitA, 1)
	e := env.New(nil)
	e.DefineVal("y", &env.ValBind{
		Scheme: types.MonoScheme(&types.Con{Tycon: intT}), Slot: 0,
	})
	data := pickleEnv(t, e, unitB)

	// Context index holds A's actual object.
	ctxTycon := mkTycon("int", unitA, 1)
	ix := NewIndex()
	ix.Add(unitA, []any{ctxTycon})

	out := unpickleEnv(t, data, ix)
	vb, _ := out.LocalVal("y")
	if vb.Scheme.Body.(*types.Con).Tycon != ctxTycon {
		t.Error("stub did not resolve to the context object")
	}
}

func TestMissingStubReported(t *testing.T) {
	intT := mkTycon("int", unitA, 1)
	e := env.New(nil)
	e.DefineVal("y", &env.ValBind{
		Scheme: types.MonoScheme(&types.Con{Tycon: intT}), Slot: 0,
	})
	data := pickleEnv(t, e, unitB)

	u := NewUnpickler(data, NewIndex())
	u.Env()
	if u.Err() == nil {
		t.Fatal("missing context object not reported")
	}
}

func TestRecursiveDatatypeRoundTrip(t *testing.T) {
	// datatype t = L | N of t * t — the tycon/datacon cycle.
	tc := &types.Tycon{
		Stamp: permanent(unitA, 5), Name: "t", Kind: types.KindData, Eq: true,
	}
	tTy := &types.Con{Tycon: tc}
	leaf := &types.DataCon{Name: "L", Scheme: types.MonoScheme(tTy), Tag: 0, Span: 2, Tycon: tc}
	node := &types.DataCon{
		Name: "N", HasArg: true, Tag: 1, Span: 2, Tycon: tc,
		Scheme: types.MonoScheme(&types.Arrow{From: types.Tuple(tTy, tTy), To: tTy}),
	}
	tc.Cons = []*types.DataCon{leaf, node}

	e := env.New(nil)
	e.DefineTycon("t", tc)
	e.DefineVal("L", &env.ValBind{Scheme: leaf.Scheme, Con: leaf, Slot: -1})
	e.DefineVal("N", &env.ValBind{Scheme: node.Scheme, Con: node, Slot: -1})

	out := unpickleEnv(t, pickleEnv(t, e, unitA), NewIndex())
	tc2, _ := out.LocalTycon("t")
	if len(tc2.Cons) != 2 {
		t.Fatal("constructors lost")
	}
	if tc2.Cons[1].Tycon != tc2 {
		t.Error("datacon->tycon backlink broken")
	}
	vbN, _ := out.LocalVal("N")
	if vbN.Con != tc2.Cons[1] {
		t.Error("constructor binding not shared with tycon's list")
	}
}

func TestSharingPreserved(t *testing.T) {
	// A structure referenced twice must pickle once (by backref) and
	// rehydrate to one object.
	shared := &env.Structure{
		Stamp: permanent(unitA, 7), Env: env.New(nil), NumSlots: 0,
	}
	e := env.New(nil)
	e.DefineStr("P", &env.StrBind{Str: shared, Slot: 0})
	e.DefineStr("Q", &env.StrBind{Str: shared, Slot: 1})

	out := unpickleEnv(t, pickleEnv(t, e, unitA), NewIndex())
	p, _ := out.LocalStr("P")
	q, _ := out.LocalStr("Q")
	if p.Str != q.Str {
		t.Error("shared structure duplicated")
	}
}

// TestSharingSizeLinear is the E6 property at unit-test scale: a chain
// of depth n where each level references the previous twice pickles in
// O(n), not O(2^n).
func TestSharingSizeLinear(t *testing.T) {
	build := func(depth int) *env.Env {
		prev := &env.Structure{Stamp: permanent(unitA, 1), Env: env.New(nil)}
		idx := int64(2)
		for i := 0; i < depth; i++ {
			inner := env.New(nil)
			inner.DefineStr("L", &env.StrBind{Str: prev, Slot: 0})
			inner.DefineStr("R", &env.StrBind{Str: prev, Slot: 1})
			prev = &env.Structure{Stamp: permanent(unitA, idx), Env: inner, NumSlots: 2}
			idx++
		}
		e := env.New(nil)
		e.DefineStr("Top", &env.StrBind{Str: prev, Slot: 0})
		return e
	}
	size10 := len(pickleEnv(t, build(10), unitA))
	size20 := len(pickleEnv(t, build(20), unitA))
	if size20 > 3*size10 {
		t.Errorf("pickle grows superlinearly: depth10=%dB depth20=%dB", size10, size20)
	}
	// And it round-trips.
	out := unpickleEnv(t, pickleEnv(t, build(12), unitA), NewIndex())
	top, _ := out.LocalStr("Top")
	l, _ := top.Str.Env.LocalStr("L")
	r, _ := top.Str.Env.LocalStr("R")
	if l.Str != r.Str {
		t.Error("rehydrated sharing broken")
	}
}

func TestAlphaConversionMakesHashStampIndependent(t *testing.T) {
	// Two elaborations of the same interface allocate different
	// provisional stamp indices; the pickled (hash) stream must be
	// identical anyway.
	build := func(g *stamps.Gen, burn int) *env.Env {
		for i := 0; i < burn; i++ {
			g.Fresh() // simulate unrelated compiler work
		}
		tc := &types.Tycon{Stamp: g.Fresh(), Name: "t", Kind: types.KindData, Eq: true}
		c := &types.DataCon{Name: "C", Scheme: types.MonoScheme(&types.Con{Tycon: tc}), Span: 1, Tycon: tc}
		tc.Cons = []*types.DataCon{c}
		e := env.New(nil)
		e.DefineTycon("t", tc)
		e.DefineVal("C", &env.ValBind{Scheme: c.Scheme, Con: c, Slot: -1})
		return e
	}
	p1 := NewPickler(pid.Zero)
	p1.Env(build(stamps.NewGen(), 0))

	p2 := NewPickler(pid.Zero)
	p2.Env(build(stamps.NewGen(), 1000))

	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Error("stream depends on provisional stamp counter (alpha conversion broken)")
	}
}

func TestAssignPermanentStamps(t *testing.T) {
	g := stamps.NewGen()
	tc := &types.Tycon{Stamp: g.Fresh(), Name: "t", Kind: types.KindFormal}
	st := &env.Structure{Stamp: g.Fresh(), Env: env.New(nil)}
	e := env.New(nil)
	e.DefineTycon("t", tc)
	e.DefineStr("S", &env.StrBind{Str: st, Slot: 0})

	p := NewPickler(pid.Zero)
	p.Env(e)
	AssignPermanentStamps(p.Provisional(), unitA)
	if tc.Stamp.Origin != unitA || st.Stamp.Origin != unitA {
		t.Error("stamps not assigned")
	}
	if tc.Stamp.Index == st.Stamp.Index {
		t.Error("duplicate permanent indices")
	}
}

func TestASTRoundTrip(t *testing.T) {
	src := &ast.FunctorBind{}
	_ = src
	decs := []ast.Dec{
		&ast.ValDec{Vbs: []ast.ValBind{{
			Pat: &ast.VarPat{Name: ast.LongID{Parts: []string{"x"}}},
			Exp: &ast.AppExp{
				Fn: &ast.VarExp{Name: ast.LongID{Parts: []string{"f"}}},
				Arg: &ast.RecordExp{Fields: []ast.RecordExpField{
					{Label: "1", Exp: &ast.ConstExp{Kind: token.INT, Text: "1"}},
					{Label: "2", Exp: &ast.ConstExp{Kind: token.STRING, Text: "two"}},
				}},
			},
		}}},
		&ast.FunDec{Fbs: []ast.FunBind{{
			Name: "g",
			Clauses: []ast.FunClause{{
				Pats: []ast.Pat{&ast.ConPat{
					Con: ast.LongID{Parts: []string{"SOME"}},
					Arg: &ast.VarPat{Name: ast.LongID{Parts: []string{"v"}}},
				}},
				Body: &ast.CaseExp{
					Exp: &ast.VarExp{Name: ast.LongID{Parts: []string{"v"}}},
					Rules: []ast.Rule{{
						Pat: &ast.WildPat{},
						Exp: &ast.IfExp{
							Cond: &ast.VarExp{Name: ast.LongID{Parts: []string{"b"}}},
							Then: &ast.ConstExp{Kind: token.INT, Text: "1"},
							Else: &ast.ConstExp{Kind: token.INT, Text: "2"},
						},
					}},
				},
			}},
		}}},
		&ast.DatatypeDec{Dbs: []ast.DataBind{{
			TyVars: []string{"'a"}, Name: "opt",
			Cons: []ast.ConBind{{Name: "N"}, {Name: "S", Ty: &ast.VarTy{Name: "'a"}}},
		}}},
		&ast.StructureDec{Sbs: []ast.StrBind{{
			Name: "M",
			Sig:  &ast.NameSigExp{Name: "SIG"},
			Str: &ast.AppStrExp{Functor: "F", Arg: &ast.PathStrExp{
				Path: ast.LongID{Parts: []string{"A", "B"}},
			}},
		}}},
		&ast.SignatureDec{Sbs: []ast.SigBind{{
			Name: "S",
			Sig: &ast.WhereSigExp{
				Sig:   &ast.SigSigExp{Specs: []ast.Spec{&ast.TypeSpec{Name: "t"}}},
				Tycon: ast.LongID{Parts: []string{"t"}},
				Ty:    &ast.ConTy{Con: ast.LongID{Parts: []string{"int"}}},
			},
		}}},
	}

	p := NewPickler(pid.Zero)
	p.Decs(decs)
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	u := NewUnpickler(p.Bytes(), NewIndex())
	out := u.Decs()
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
	if len(out) != len(decs) {
		t.Fatalf("dec count %d", len(out))
	}
	// Deep equality via re-pickling: identical streams.
	p2 := NewPickler(pid.Zero)
	p2.Decs(out)
	if !bytes.Equal(p.Bytes(), p2.Bytes()) {
		t.Error("AST round trip not canonical")
	}
}

func TestLambdaRoundTrip(t *testing.T) {
	e := &lambda.Fn{Param: 1, Body: &lambda.Let{
		LV:   2,
		Bind: &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{&lambda.Int{Val: 1}, &lambda.Var{LV: 1}}},
		Body: &lambda.Switch{
			Kind:  lambda.SwitchConTag,
			Scrut: &lambda.Var{LV: 2},
			Span:  2,
			Cases: []lambda.Case{
				{Tag: 0, Body: &lambda.Raise{Exp: &lambda.ExnCon{Tag: &lambda.Builtin{Name: "Div"}}}},
				{Tag: 1, Body: &lambda.Handle{
					Body: &lambda.Real{Val: 2.5}, Param: 3,
					Handler: &lambda.Var{LV: 3},
				}},
			},
		},
	}}
	e.Body.(*lambda.Let).Bind = &lambda.App{Fn: &lambda.Fn{Param: 4, Body: &lambda.Var{LV: 4}}, Arg: e.Body.(*lambda.Let).Bind}
	data, err := EncodeTerm(e)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnpickler(data, NewIndex())
	out := u.Lambda()
	if u.Err() != nil {
		t.Fatal(u.Err())
	}
	if lambda.String(out) != lambda.String(e) {
		t.Errorf("lambda round trip:\n%s\n%s", lambda.String(e), lambda.String(out))
	}
	// EncodeTerm gives each Fn the Pos its decode gets.
	inner := e.Body.(*lambda.Let).Bind.(*lambda.App).Fn.(*lambda.Fn)
	outInner := out.(*lambda.Fn).Body.(*lambda.Let).Bind.(*lambda.App).Fn.(*lambda.Fn)
	if e.Pos != 0 || inner.Pos == 0 || inner.Pos != outInner.Pos || data[inner.Pos] != lFn {
		t.Errorf("Fn offsets: encoded %d and %d, decoded inner %d", e.Pos, inner.Pos, outInner.Pos)
	}
}

func TestFreeVarRejected(t *testing.T) {
	e := env.New(nil)
	e.DefineVal("x", &env.ValBind{
		Scheme: types.MonoScheme(types.NewVar(0)), Slot: 0,
	})
	p := NewPickler(unitA)
	p.Env(e)
	if p.Err() == nil {
		t.Error("free type variable pickled silently")
	}
}

func TestOverloadVarDefaultsDuringPickle(t *testing.T) {
	intT := mkTycon("int", unitA, 1)
	v := types.NewVar(0)
	v.Overload = []*types.Tycon{intT}
	e := env.New(nil)
	e.DefineVal("x", &env.ValBind{Scheme: types.MonoScheme(v), Slot: 0})
	out := unpickleEnv(t, pickleEnv(t, e, unitA), NewIndex())
	vb, _ := out.LocalVal("x")
	con, ok := vb.Scheme.Body.(*types.Con)
	if !ok || con.Tycon.Name != "int" {
		t.Errorf("overload var pickled as %s", types.TyString(vb.Scheme.Body))
	}
}

func TestIndexCoverage(t *testing.T) {
	// A unit's own objects, in nested structures and functor closures
	// too, are listed by ordinal when it pickles and when it is read,
	// and the index resolves each stamp to its object.
	prov := func(i int64) stamps.Stamp { return stamps.Stamp{Index: 100 + i} }
	inner := &types.Tycon{Stamp: prov(1), Name: "inner", Kind: types.KindPrim}
	closEnv := env.New(nil)
	closEnv.DefineTycon("inner", inner)
	fct := &env.Functor{
		Stamp: prov(2), Name: "F", ParamName: "X",
		ParamSig: &ast.SigSigExp{}, Body: &ast.StructStrExp{}, Closure: closEnv,
	}
	subStr := &env.Structure{Stamp: prov(3), Env: env.New(nil)}
	e := env.New(nil)
	e.DefineFct("F", &env.FctBind{Fct: fct})
	e.DefineStr("S", &env.StrBind{Str: subStr, Slot: 0})

	ep, err := CanonicalEnv(e)
	if err != nil {
		t.Fatal(err)
	}
	AssignPermanentStamps(ep.Provisional(), unitA)
	p := NewPickler(unitA)
	p.Header("a", unitA, nil, 1)
	p.Env(e)
	u := NewUnpickler(p.Bytes(), nil)
	u.Header()
	u.Env()
	if err := u.Err(); err != nil {
		t.Fatal(err)
	}
	read := u.Owned()
	objs := []any{fct, inner, subStr} // traversal order
	if len(ep.Provisional()) != len(objs) || len(read) != len(objs) {
		t.Fatalf("compiled %d, read %d own objects, want %d",
			len(ep.Provisional()), len(read), len(objs))
	}
	ix := NewIndex()
	ix.Add(unitA, ep.Provisional())
	for i, obj := range objs {
		s, _ := stampOf(obj)
		if s != permanent(unitA, int64(i+1)) {
			t.Errorf("object %d stamped %s", i, s)
		}
		if got, ok := ix.Lookup(s); !ok || got != obj {
			t.Errorf("stamp %s resolves to %v", s, got)
		}
		if rs, _ := stampOf(read[i]); rs != s {
			t.Errorf("read object %d stamped %s, want %s", i, rs, s)
		}
	}
	if _, err := lookup[*types.Tycon](ix, inner.Stamp, "tycon"); err != nil {
		t.Error(err)
	}
	// Wrong kind, an ordinal past the table and an unknown origin fail.
	if _, err := lookup[*env.Structure](ix, inner.Stamp, "structure"); err == nil {
		t.Error("kind confusion accepted")
	}
	for _, s := range []stamps.Stamp{permanent(unitA, 0), permanent(unitA, 4), permanent(unitB, 1)} {
		if _, ok := ix.Lookup(s); ok {
			t.Errorf("stamp %s resolved", s)
		}
	}
}

func TestCorruptedInput(t *testing.T) {
	for _, data := range [][]byte{
		{},
		{0xff},
		{tagInline, 0xff, 0xff},
		bytes.Repeat([]byte{0xee}, 64),
	} {
		u := NewUnpickler(data, NewIndex())
		u.Env()
		if u.Err() == nil {
			t.Errorf("corrupt input %v accepted", data)
		}
	}
}

func TestBytesWritten(t *testing.T) {
	p := NewPickler(pid.Zero)
	p.Env(env.New(nil))
	if p.BytesWritten() != len(p.Bytes()) {
		t.Errorf("BytesWritten %d vs %d", p.BytesWritten(), len(p.Bytes()))
	}
}

var _ = fmt.Sprintf
