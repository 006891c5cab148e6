package basis

import (
	"sort"
	"testing"

	"repro/internal/types"
)

func TestPrimEnvComplete(t *testing.T) {
	e := PrimEnv()
	for _, name := range []string{
		"+", "-", "*", "/", "div", "mod", "~", "abs",
		"<", "<=", ">", ">=", "=", "<>", "^",
		"size", "str", "chr", "ord", "explode", "implode", "substring",
		"real", "floor", "ceil", "round", "trunc", "sqrt",
		"ref", "!", ":=", "print", "exnName",
		"true", "false", "nil", "::",
		"Match", "Bind", "Div", "Overflow", "Subscript", "Size", "Chr", "Fail",
	} {
		if _, ok := e.LookupVal(name); !ok {
			t.Errorf("basis missing value %q", name)
		}
	}
	for _, name := range []string{
		"int", "real", "string", "char", "word", "bool", "list",
		"ref", "array", "exn", "unit",
	} {
		if _, ok := e.LookupTycon(name); !ok {
			t.Errorf("basis missing tycon %q", name)
		}
	}
}

func TestPermanentStamps(t *testing.T) {
	for _, tc := range []*types.Tycon{
		IntTycon, RealTycon, StringTycon, CharTycon, WordTycon,
		ExnTycon, RefTycon, ArrayTycon, UnitTycon, BoolTycon, ListTycon,
	} {
		if tc.Stamp.IsProvisional() {
			t.Errorf("primitive tycon %s has a provisional stamp", tc.Name)
		}
		if tc.Stamp.Origin != BasisPid {
			t.Errorf("primitive tycon %s has foreign origin", tc.Name)
		}
	}
	// Stamps are distinct.
	stamps := []*types.Tycon{IntTycon, RealTycon, StringTycon, BoolTycon, ListTycon}
	keys := map[string]bool{}
	for _, tc := range stamps {
		k := tc.Stamp.Key()
		if keys[k] {
			t.Errorf("duplicate stamp %s", k)
		}
		keys[k] = true
	}
}

func TestConstructorTags(t *testing.T) {
	if FalseCon.Tag != 0 || TrueCon.Tag != 1 {
		t.Error("bool tags (interp.Bool depends on false=0, true=1)")
	}
	if NilCon.Tag != 0 || ConsCon.Tag != 1 {
		t.Error("list tags (interp.List depends on nil=0, ::=1)")
	}
	if !ConsCon.HasArg || NilCon.HasArg {
		t.Error("list constructor arities")
	}
}

func TestEqualityFlags(t *testing.T) {
	if !IntTycon.Eq || !StringTycon.Eq || RealTycon.Eq {
		t.Error("primitive equality flags (real must not admit equality in SML97)")
	}
	if !types.AdmitsEq(List(Int())) {
		t.Error("int list must admit equality")
	}
	if types.AdmitsEq(&types.Arrow{From: Int(), To: Int()}) {
		t.Error("arrow admits equality")
	}
}

func TestDeterministicOrder(t *testing.T) {
	e1 := PrimEnv()
	e2 := PrimEnv()
	o1, o2 := e1.Order(), e2.Order()
	if len(o1) != len(o2) {
		t.Fatal("basis size varies")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("basis order varies at %d: %v vs %v", i, o1[i], o2[i])
		}
	}
	names := make([]string, 0, len(o1))
	for _, ent := range o1 {
		names = append(names, ent.Name)
	}
	if !sort.StringsAreSorted(names) {
		// Not required — just documents that order is insertion order,
		// which the hash relies on being deterministic, not sorted.
		t.Log("basis order is insertion order (expected)")
	}
}

// TestStampedByOrdinal: the basis's ordinal table lists every stamped
// primitive object, entry i-1 stamped {BasisPid, i}, and PrimEnv binds
// exactly those tycons.
func TestStampedByOrdinal(t *testing.T) {
	objs := Stamped()
	if int64(len(objs)) != stampIndex {
		t.Fatalf("Stamped has %d objects, %d stamps were drawn", len(objs), stampIndex)
	}
	e := PrimEnv()
	for i, obj := range objs {
		tc, ok := obj.(*types.Tycon)
		if !ok {
			t.Fatalf("entry %d is a %T", i, obj)
		}
		if tc.Stamp.Origin != BasisPid || tc.Stamp.Index != int64(i+1) {
			t.Errorf("entry %d (%s) stamped %s", i, tc.Name, tc.Stamp)
		}
		if got, _ := e.LookupTycon(tc.Name); got != tc {
			t.Errorf("PrimEnv binds %s to another tycon", tc.Name)
		}
	}
}
