// Package basis defines the initial static environment: the primitive
// type constructors (int, real, string, char, word, bool, list, ref,
// exn), the built-in data constructors (true, false, nil, ::), the
// overloaded arithmetic and comparison primitives, and the built-in
// exceptions.
//
// The primitive objects are process-global singletons with permanent
// stamps whose origin is the reserved basis pid, so every compilation
// in every session agrees on their identity — they are the fixed point
// the cross-unit pid/stamp machinery is anchored to. A second layer of
// the basis (List utilities, Int/Real/String structures, etc.) is
// written in SML itself (Prelude) and compiled as the first unit.
//
// Concurrency: the primitive environment is built once at package init
// and never mutated afterwards; New returns fresh env layers, so the
// package is safe for concurrent use.
package basis

import (
	"repro/internal/env"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/types"
)

// BasisPid is the reserved origin pid of primitive stamps.
var BasisPid = pid.HashString("$primitive-basis")

var stampIndex int64

func permStamp() stamps.Stamp {
	stampIndex++
	return stamps.Stamp{Origin: BasisPid, Index: stampIndex}
}

// Primitive type constructors.
var (
	IntTycon    = &types.Tycon{Stamp: permStamp(), Name: "int", Kind: types.KindPrim, Eq: true}
	RealTycon   = &types.Tycon{Stamp: permStamp(), Name: "real", Kind: types.KindPrim}
	StringTycon = &types.Tycon{Stamp: permStamp(), Name: "string", Kind: types.KindPrim, Eq: true}
	CharTycon   = &types.Tycon{Stamp: permStamp(), Name: "char", Kind: types.KindPrim, Eq: true}
	WordTycon   = &types.Tycon{Stamp: permStamp(), Name: "word", Kind: types.KindPrim, Eq: true}
	ExnTycon    = &types.Tycon{Stamp: permStamp(), Name: "exn", Kind: types.KindPrim}
	RefTycon    = &types.Tycon{Stamp: permStamp(), Name: "ref", Arity: 1, Kind: types.KindPrim, Eq: true}
	ArrayTycon  = &types.Tycon{Stamp: permStamp(), Name: "array", Arity: 1, Kind: types.KindPrim, Eq: true}
	VectorTycon = &types.Tycon{Stamp: permStamp(), Name: "vector", Arity: 1, Kind: types.KindPrim, Eq: true}
	UnitTycon   = &types.Tycon{Stamp: permStamp(), Name: "unit", Arity: 0, Kind: types.KindAbbrev,
		Abbrev: &types.TyFun{Body: types.Unit()}}
	BoolTycon = &types.Tycon{Stamp: permStamp(), Name: "bool", Kind: types.KindData, Eq: true}
	ListTycon = &types.Tycon{Stamp: permStamp(), Name: "list", Arity: 1, Kind: types.KindData, Eq: true}
)

// stamped lists the primitive tycons in the order their stamps were
// drawn.
var stamped = []any{
	IntTycon, RealTycon, StringTycon, CharTycon, WordTycon,
	ExnTycon, RefTycon, ArrayTycon, VectorTycon, UnitTycon, BoolTycon, ListTycon,
}

// Stamped returns the basis's stamped objects by ordinal, its table in
// a pickle.Index: entry i-1 is the tycon stamped {BasisPid, i}. The
// slice is shared and must not be modified.
func Stamped() []any { return stamped }

// Built-in data constructors.
var (
	FalseCon, TrueCon *types.DataCon
	NilCon, ConsCon   *types.DataCon
)

// The nullary primitive types. Type nodes are never written once
// built, so every use shares one node per type.
var (
	intTy    types.Ty = &types.Con{Tycon: IntTycon}
	realTy   types.Ty = &types.Con{Tycon: RealTycon}
	stringTy types.Ty = &types.Con{Tycon: StringTycon}
	charTy   types.Ty = &types.Con{Tycon: CharTycon}
	wordTy   types.Ty = &types.Con{Tycon: WordTycon}
	exnTy    types.Ty = &types.Con{Tycon: ExnTycon}
	boolTy   types.Ty = &types.Con{Tycon: BoolTycon}
)

// Convenience type builders.
func Int() types.Ty    { return intTy }
func Real() types.Ty   { return realTy }
func String() types.Ty { return stringTy }
func Char() types.Ty   { return charTy }
func Word() types.Ty   { return wordTy }
func Exn() types.Ty    { return exnTy }
func Bool() types.Ty   { return boolTy }
func Unit() types.Ty   { return types.Unit() }

// List returns elem list.
func List(elem types.Ty) types.Ty {
	return &types.Con{Tycon: ListTycon, Args: []types.Ty{elem}}
}

// Ref returns t ref.
func Ref(t types.Ty) types.Ty {
	return &types.Con{Tycon: RefTycon, Args: []types.Ty{t}}
}

// Array returns t array.
func Array(t types.Ty) types.Ty {
	return &types.Con{Tycon: ArrayTycon, Args: []types.Ty{t}}
}

// Vector returns t vector.
func Vector(t types.Ty) types.Ty {
	return &types.Con{Tycon: VectorTycon, Args: []types.Ty{t}}
}

func arrow(a, b types.Ty) types.Ty     { return &types.Arrow{From: a, To: b} }
func pair(a, b types.Ty) *types.Record { return types.Tuple(a, b) }

func init() {
	boolT := Bool()
	FalseCon = &types.DataCon{Name: "false", Scheme: types.MonoScheme(boolT), Tag: 0, Span: 2, Tycon: BoolTycon}
	TrueCon = &types.DataCon{Name: "true", Scheme: types.MonoScheme(boolT), Tag: 1, Span: 2, Tycon: BoolTycon}
	BoolTycon.Cons = []*types.DataCon{FalseCon, TrueCon}

	// 'a list: nil : 'a list;  :: : 'a * 'a list -> 'a list.
	b0 := types.Ty(&types.Bound{Index: 0})
	listB := &types.Con{Tycon: ListTycon, Args: []types.Ty{b0}}
	NilCon = &types.DataCon{
		Name: "nil", Scheme: &types.Scheme{Arity: 1, EqFlags: []bool{false}, Body: listB},
		Tag: 0, Span: 2, Tycon: ListTycon,
	}
	ConsCon = &types.DataCon{
		Name: "::", HasArg: true,
		Scheme: &types.Scheme{Arity: 1, EqFlags: []bool{false},
			Body: arrow(pair(b0, listB), listB)},
		Tag: 1, Span: 2, Tycon: ListTycon,
	}
	ListTycon.Cons = []*types.DataCon{NilCon, ConsCon}
}

// PrimEnv builds the primitive layer of the basis: a fresh root
// environment containing the primitive tycons, constructors,
// primitives, and built-in exceptions.
func PrimEnv() *env.Env {
	e := env.New(nil)

	for _, obj := range stamped {
		tc := obj.(*types.Tycon)
		e.DefineTycon(tc.Name, tc)
	}

	defineCon := func(dc *types.DataCon) {
		e.DefineVal(dc.Name, &env.ValBind{Scheme: dc.Scheme, Con: dc, Slot: -1})
	}
	defineCon(FalseCon)
	defineCon(TrueCon)
	defineCon(NilCon)
	defineCon(ConsCon)

	b0 := types.Ty(&types.Bound{Index: 0})

	// Overloaded arithmetic: 'v * 'v -> 'v over the listed tycons.
	overBin := func(name, op string, tycons ...*types.Tycon) {
		e.DefineVal(name, &env.ValBind{
			Scheme:   &types.Scheme{Arity: 1, EqFlags: []bool{false}, Body: arrow(pair(b0, b0), b0)},
			Slot:     -1,
			Prim:     op,
			Overload: tycons,
		})
	}
	// Overloaded comparison: 'v * 'v -> bool.
	overCmp := func(name, op string, tycons ...*types.Tycon) {
		e.DefineVal(name, &env.ValBind{
			Scheme:   &types.Scheme{Arity: 1, EqFlags: []bool{false}, Body: arrow(pair(b0, b0), Bool())},
			Slot:     -1,
			Prim:     op,
			Overload: tycons,
		})
	}
	// Overloaded unary: 'v -> 'v.
	overUn := func(name, op string, tycons ...*types.Tycon) {
		e.DefineVal(name, &env.ValBind{
			Scheme:   &types.Scheme{Arity: 1, EqFlags: []bool{false}, Body: arrow(b0, b0)},
			Slot:     -1,
			Prim:     op,
			Overload: tycons,
		})
	}

	numeric := []*types.Tycon{IntTycon, RealTycon, WordTycon}
	ordered := []*types.Tycon{IntTycon, RealTycon, WordTycon, StringTycon, CharTycon}

	overBin("+", "add", numeric...)
	overBin("-", "sub", numeric...)
	overBin("*", "mul", numeric...)
	overBin("div", "div", IntTycon, WordTycon)
	overBin("mod", "mod", IntTycon, WordTycon)
	overUn("~", "neg", IntTycon, RealTycon)
	overUn("abs", "abs", IntTycon, RealTycon)
	overCmp("<", "lt", ordered...)
	overCmp("<=", "le", ordered...)
	overCmp(">", "gt", ordered...)
	overCmp(">=", "ge", ordered...)

	// Monomorphic and polymorphic primitives.
	prim := func(name, op string, scheme *types.Scheme) {
		e.DefineVal(name, &env.ValBind{Scheme: scheme, Slot: -1, Prim: op})
	}
	mono := func(t types.Ty) *types.Scheme { return types.MonoScheme(t) }
	poly1 := func(body types.Ty) *types.Scheme {
		return &types.Scheme{Arity: 1, EqFlags: []bool{false}, Body: body}
	}
	eqPoly := func(body types.Ty) *types.Scheme {
		return &types.Scheme{Arity: 1, EqFlags: []bool{true}, Body: body}
	}

	prim("/", "fdiv", mono(arrow(pair(Real(), Real()), Real())))
	prim("quot", "quot", mono(arrow(pair(Int(), Int()), Int())))
	prim("rem", "rem", mono(arrow(pair(Int(), Int()), Int())))
	prim("=", "eq", eqPoly(arrow(pair(b0, b0), Bool())))
	prim("<>", "ne", eqPoly(arrow(pair(b0, b0), Bool())))
	prim("^", "concat", mono(arrow(pair(String(), String()), String())))
	prim("size", "size", mono(arrow(String(), Int())))
	prim("str", "str", mono(arrow(Char(), String())))
	prim("chr", "chr", mono(arrow(Int(), Char())))
	prim("ord", "ord", mono(arrow(Char(), Int())))
	prim("explode", "explode", mono(arrow(String(), List(Char()))))
	prim("implode", "implode", mono(arrow(List(Char()), String())))
	prim("substring", "substring", mono(arrow(types.Tuple(String(), Int(), Int()), String())))
	prim("real", "real", mono(arrow(Int(), Real())))
	prim("floor", "floor", mono(arrow(Real(), Int())))
	prim("ceil", "ceil", mono(arrow(Real(), Int())))
	prim("round", "round", mono(arrow(Real(), Int())))
	prim("trunc", "trunc", mono(arrow(Real(), Int())))
	prim("sqrt", "sqrt", mono(arrow(Real(), Real())))
	prim("ln", "ln", mono(arrow(Real(), Real())))
	prim("exp", "exp", mono(arrow(Real(), Real())))
	prim("sin", "sin", mono(arrow(Real(), Real())))
	prim("cos", "cos", mono(arrow(Real(), Real())))
	prim("atan", "atan", mono(arrow(Real(), Real())))
	prim("intToString", "intToString", mono(arrow(Int(), String())))
	prim("realToString", "realToString", mono(arrow(Real(), String())))
	prim("ref", "ref", poly1(arrow(b0, Ref(b0))))
	prim("!", "deref", poly1(arrow(Ref(b0), b0)))
	prim(":=", "assign", poly1(arrow(pair(Ref(b0), b0), Unit())))
	prim("print", "print", mono(arrow(String(), Unit())))
	prim("exnName", "exnName", mono(arrow(Exn(), String())))
	prim("wordAndb", "andb", mono(arrow(pair(Word(), Word()), Word())))
	prim("wordOrb", "orb", mono(arrow(pair(Word(), Word()), Word())))
	prim("wordXorb", "xorb", mono(arrow(pair(Word(), Word()), Word())))
	prim("wordNotb", "notb", mono(arrow(Word(), Word())))
	prim("wordLshift", "lshift", mono(arrow(pair(Word(), Word()), Word())))
	prim("wordRshift", "rshift", mono(arrow(pair(Word(), Word()), Word())))
	prim("wordToInt", "wordToInt", mono(arrow(Word(), Int())))
	prim("wordFromInt", "intToWord", mono(arrow(Int(), Word())))
	prim("primArray", "array", poly1(arrow(pair(Int(), b0), Array(b0))))
	prim("primArrayFromList", "arrayFromList", poly1(arrow(List(b0), Array(b0))))
	prim("primArraySub", "asub", poly1(arrow(pair(Array(b0), Int()), b0)))
	prim("primArrayUpdate", "aupdate",
		poly1(arrow(types.Tuple(Array(b0), Int(), b0), Unit())))
	prim("primArrayLength", "alength", poly1(arrow(Array(b0), Int())))
	prim("primVector", "vectorFromList", poly1(arrow(List(b0), Vector(b0))))
	prim("primVectorSub", "vsub", poly1(arrow(pair(Vector(b0), Int()), b0)))
	prim("primVectorLength", "vlength", poly1(arrow(Vector(b0), Int())))

	// Built-in exceptions: constructor bindings whose runtime tags live
	// in the machine ("exn:" prefix).
	exn0 := func(name string) {
		dc := &types.DataCon{Name: name, Scheme: mono(Exn()), Tycon: ExnTycon, IsExn: true}
		e.DefineVal(name, &env.ValBind{Scheme: dc.Scheme, Con: dc, Slot: -1, Prim: "exn:" + name})
	}
	exn0("Match")
	exn0("Bind")
	exn0("Div")
	exn0("Overflow")
	exn0("Subscript")
	exn0("Size")
	exn0("Chr")
	failDC := &types.DataCon{Name: "Fail", HasArg: true,
		Scheme: mono(arrow(String(), Exn())), Tycon: ExnTycon, IsExn: true}
	e.DefineVal("Fail", &env.ValBind{Scheme: failDC.Scheme, Con: failDC, Slot: -1, Prim: "exn:Fail"})

	return e
}
