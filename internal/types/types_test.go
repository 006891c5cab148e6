package types

import (
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/stamps"
)

var testGen = stamps.NewGen()

func newTycon(name string, arity int) *Tycon {
	return &Tycon{Stamp: testGen.Fresh(), Name: name, Arity: arity, Kind: KindPrim, Eq: true}
}

var (
	tInt  = newTycon("int", 0)
	tBool = newTycon("bool", 0)
	tList = newTycon("list", 1)
)

func intTy() Ty  { return &Con{Tycon: tInt} }
func boolTy() Ty { return &Con{Tycon: tBool} }
func listTy(e Ty) Ty {
	return &Con{Tycon: tList, Args: []Ty{e}}
}

func TestUnifyBasics(t *testing.T) {
	v := NewVar(0)
	if err := Unify(v, intTy()); err != nil {
		t.Fatal(err)
	}
	if !Equal(Prune(v), intTy()) {
		t.Errorf("v = %s", TyString(v))
	}
	if err := Unify(v, boolTy()); err == nil {
		t.Error("int unified with bool")
	}
}

func TestUnifyStructural(t *testing.T) {
	a := NewVar(0)
	b := NewVar(0)
	t1 := &Arrow{From: a, To: listTy(a)}
	t2 := &Arrow{From: intTy(), To: b}
	if err := Unify(t1, t2); err != nil {
		t.Fatal(err)
	}
	if !Equal(Prune(b), listTy(intTy())) {
		t.Errorf("b = %s", TyString(b))
	}
}

func TestOccursCheck(t *testing.T) {
	v := NewVar(0)
	if err := Unify(v, listTy(v)); err == nil {
		t.Error("occurs check failed to fire")
	}
}

func TestRecordUnify(t *testing.T) {
	r1, _ := NewRecord([]string{"b", "a"}, []Ty{boolTy(), intTy()})
	r2, _ := NewRecord([]string{"a", "b"}, []Ty{intTy(), boolTy()})
	if err := Unify(r1, r2); err != nil {
		t.Fatalf("canonically equal records failed: %v", err)
	}
	r3, _ := NewRecord([]string{"a"}, []Ty{intTy()})
	if err := Unify(r1, r3); err == nil {
		t.Error("records of different width unified")
	}
}

func TestLabelOrdering(t *testing.T) {
	// Numeric labels sort numerically before alphabetic ones.
	r, _ := NewRecord([]string{"x", "10", "2", "a"}, []Ty{intTy(), intTy(), intTy(), intTy()})
	want := []string{"2", "10", "a", "x"}
	for i, l := range r.Labels {
		if l != want[i] {
			t.Fatalf("labels %v, want %v", r.Labels, want)
		}
	}
}

func TestTupleDetection(t *testing.T) {
	tup := Tuple(intTy(), boolTy())
	if _, ok := tup.IsTuple(); !ok {
		t.Error("tuple not detected")
	}
	r, _ := NewRecord([]string{"1", "3"}, []Ty{intTy(), intTy()})
	if _, ok := r.IsTuple(); ok {
		t.Error("gappy record detected as tuple")
	}
}

// TestTupleLabels: tuples within the shared table's width share it,
// wider ones get labels of their own, and either way they are
// "1".."n".
func TestTupleLabels(t *testing.T) {
	for _, n := range []int{0, 1, 2, 32, 33, 40} {
		ls := TupleLabels(n)
		if len(ls) != n || cap(ls) != n {
			t.Fatalf("TupleLabels(%d) has len %d cap %d", n, len(ls), cap(ls))
		}
		for i, l := range ls {
			if want := strconv.Itoa(i + 1); l != want {
				t.Errorf("TupleLabels(%d)[%d] = %q, want %q", n, i, l, want)
			}
		}
	}
	a, b := Tuple(intTy(), intTy()), Tuple(boolTy(), boolTy(), boolTy())
	if &a.Labels[0] != &b.Labels[0] {
		t.Error("tuple types do not share the canonical label table")
	}
}

func TestDuplicateLabels(t *testing.T) {
	if _, err := NewRecord([]string{"a", "a"}, []Ty{intTy(), intTy()}); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestGeneralizeAndInstantiate(t *testing.T) {
	v := NewVar(1) // level above the generalization point
	ty := &Arrow{From: v, To: listTy(v)}
	s := Generalize(ty, 0)
	if s.Arity != 1 {
		t.Fatalf("arity %d", s.Arity)
	}
	inst1 := Instantiate(s, 0)
	inst2 := Instantiate(s, 0)
	// Distinct instantiations must not share variables.
	if err := Unify(inst1.(*Arrow).From, intTy()); err != nil {
		t.Fatal(err)
	}
	if err := Unify(inst2.(*Arrow).From, boolTy()); err != nil {
		t.Fatalf("instantiations share variables: %v", err)
	}
}

func TestLevelBlocksGeneralization(t *testing.T) {
	v := NewVar(0) // same level: must not generalize
	s := Generalize(v, 0)
	if s.Arity != 0 {
		t.Error("low-level variable generalized")
	}
}

func TestAbbrevExpansion(t *testing.T) {
	// type pair = int * int; unification sees through it.
	pairBody := Tuple(intTy(), intTy())
	abbrev := &Tycon{
		Stamp: testGen.Fresh(), Name: "pair", Kind: KindAbbrev,
		Abbrev: &TyFun{Body: pairBody},
	}
	u := Tuple(intTy(), intTy())
	if err := Unify(&Con{Tycon: abbrev}, u); err != nil {
		t.Fatalf("abbrev did not expand: %v", err)
	}
}

func TestParameterizedAbbrev(t *testing.T) {
	// type 'a two = 'a * 'a.
	two := &Tycon{
		Stamp: testGen.Fresh(), Name: "two", Arity: 1, Kind: KindAbbrev,
		Abbrev: &TyFun{Arity: 1, Body: Tuple(&Bound{Index: 0}, &Bound{Index: 0})},
	}
	got := HeadNormalize(&Con{Tycon: two, Args: []Ty{intTy()}})
	if !Equal(got, Tuple(intTy(), intTy())) {
		t.Errorf("expansion = %s", TyString(got))
	}
}

func TestGenerativeIdentity(t *testing.T) {
	// Two tycons with identical names but different stamps differ.
	a := newTycon("t", 0)
	b := newTycon("t", 0)
	if Equal(&Con{Tycon: a}, &Con{Tycon: b}) {
		t.Error("tycons equal despite distinct stamps")
	}
	if err := Unify(&Con{Tycon: a}, &Con{Tycon: b}); err == nil {
		t.Error("generative tycons unified")
	}
}

func TestEqVarRejectsArrow(t *testing.T) {
	v := NewEqVar(0)
	arrow := &Arrow{From: intTy(), To: intTy()}
	if err := Unify(v, arrow); err == nil {
		t.Error("equality variable accepted a function type")
	}
}

func TestFlexRecordResolves(t *testing.T) {
	v := NewVar(0)
	fieldTy := NewVar(0)
	v.Flex = map[string]Ty{"x": fieldTy}
	full, _ := NewRecord([]string{"x", "y"}, []Ty{intTy(), boolTy()})
	if err := Unify(v, full); err != nil {
		t.Fatal(err)
	}
	if !Equal(Prune(fieldTy), intTy()) {
		t.Errorf("flex field = %s", TyString(fieldTy))
	}
}

func TestFlexRecordMissingField(t *testing.T) {
	v := NewVar(0)
	v.Flex = map[string]Ty{"z": intTy()}
	full, _ := NewRecord([]string{"x"}, []Ty{intTy()})
	if err := Unify(v, full); err == nil {
		t.Error("flex record matched a record lacking its field")
	}
}

func TestFlexMerge(t *testing.T) {
	v1 := NewVar(0)
	v1.Flex = map[string]Ty{"a": intTy()}
	v2 := NewVar(0)
	v2.Flex = map[string]Ty{"b": boolTy()}
	if err := Unify(v1, v2); err != nil {
		t.Fatal(err)
	}
	full, _ := NewRecord([]string{"a", "b", "c"}, []Ty{intTy(), boolTy(), intTy()})
	if err := Unify(v1, full); err != nil {
		t.Fatalf("merged flex failed: %v", err)
	}
}

func TestOverloadConstraint(t *testing.T) {
	v := NewVar(0)
	v.Overload = []*Tycon{tInt}
	if err := Unify(v, boolTy()); err == nil {
		t.Error("overloaded var accepted a non-member tycon")
	}
	v2 := NewVar(0)
	v2.Overload = []*Tycon{tInt, tBool}
	if err := Unify(v2, boolTy()); err != nil {
		t.Errorf("overloaded var rejected a member: %v", err)
	}
}

func TestRealization(t *testing.T) {
	formal := &Tycon{Stamp: testGen.Fresh(), Name: "t", Kind: KindFormal}
	r := Realization{formal.Stamp: &TyFun{Body: intTy()}}
	got := r.Apply(&Arrow{From: &Con{Tycon: formal}, To: listTy(&Con{Tycon: formal})})
	want := &Arrow{From: intTy(), To: listTy(intTy())}
	if !Equal(got, want) {
		t.Errorf("realized = %s", TyString(got))
	}
}

func TestAdmitsEq(t *testing.T) {
	if !AdmitsEq(intTy()) {
		t.Error("int")
	}
	if AdmitsEq(&Arrow{From: intTy(), To: intTy()}) {
		t.Error("arrow admitted equality")
	}
	refT := &Tycon{Stamp: testGen.Fresh(), Name: "ref", Arity: 1, Kind: KindPrim}
	if !AdmitsEq(&Con{Tycon: refT, Args: []Ty{&Arrow{From: intTy(), To: intTy()}}}) {
		t.Error("ref of arrow must admit equality")
	}
}

func TestTyString(t *testing.T) {
	cases := []struct {
		ty   Ty
		want string
	}{
		{intTy(), "int"},
		{&Arrow{From: intTy(), To: boolTy()}, "int -> bool"},
		{Tuple(intTy(), boolTy()), "int * bool"},
		{listTy(intTy()), "int list"},
		{Unit(), "unit"},
		{&Arrow{From: &Arrow{From: intTy(), To: intTy()}, To: intTy()}, "(int -> int) -> int"},
		{Tuple(listTy(intTy()), intTy()), "int list * int"},
	}
	for _, c := range cases {
		if got := TyString(c.ty); got != c.want {
			t.Errorf("TyString = %q, want %q", got, c.want)
		}
	}
}

// --- property-based tests -------------------------------------------

// genTy builds a deterministic type from a shape seed.
func genTy(seed uint64, depth int) Ty {
	if depth > 4 {
		return intTy()
	}
	switch seed % 5 {
	case 0:
		return intTy()
	case 1:
		return boolTy()
	case 2:
		return listTy(genTy(seed/5, depth+1))
	case 3:
		return &Arrow{From: genTy(seed/5, depth+1), To: genTy(seed/25, depth+1)}
	default:
		return Tuple(genTy(seed/5, depth+1), genTy(seed/25, depth+1))
	}
}

// Property: any closed type unifies with itself and with a fresh var.
func TestQuickUnifyReflexive(t *testing.T) {
	f := func(seed uint64) bool {
		ty := genTy(seed, 0)
		if Unify(ty, ty) != nil {
			return false
		}
		v := NewVar(0)
		if Unify(v, ty) != nil {
			return false
		}
		return Equal(Prune(v), ty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: generalizing a type built over high-level vars and
// re-instantiating yields a type that unifies with a fresh copy.
func TestQuickGeneralizeInstantiate(t *testing.T) {
	f := func(seed uint64) bool {
		v := NewVar(5)
		base := genTy(seed, 0)
		ty := &Arrow{From: v, To: Tuple(base, v)}
		s := Generalize(ty, 0)
		if s.Arity != 1 {
			return false
		}
		i1 := Instantiate(s, 0)
		i2 := Instantiate(s, 0)
		return Unify(i1, i2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: label ordering is a strict weak order (irreflexive,
// asymmetric, transitive on a sample).
func TestQuickLabelOrder(t *testing.T) {
	f := func(a, b uint8) bool {
		la := labelFor(a)
		lb := labelFor(b)
		if la == lb {
			return !LabelLess(la, lb) && !LabelLess(lb, la)
		}
		return LabelLess(la, lb) != LabelLess(lb, la)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func labelFor(n uint8) string {
	if n%2 == 0 {
		return string(rune('a' + n%26))
	}
	return itoa(int(n))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
