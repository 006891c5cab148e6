package ast

import (
	"reflect"
	"testing"

	"repro/internal/token"
)

func TestLongID(t *testing.T) {
	q := LongID{Parts: []string{"A", "B", "x"}}
	if q.String() != "A.B.x" || !q.IsQualified() || q.Base() != "x" {
		t.Errorf("longid %v", q)
	}
	if len(q.Qualifier()) != 2 || q.Qualifier()[1] != "B" {
		t.Errorf("qualifier %v", q.Qualifier())
	}
	u := LongID{Parts: []string{"x"}}
	if u.IsQualified() || u.Base() != "x" || len(u.Qualifier()) != 0 {
		t.Errorf("unqualified %v", u)
	}
}

func TestTupleDesugaring(t *testing.T) {
	pos := token.Pos{Line: 1, Col: 1}
	e := TupleExp([]Exp{&ConstExp{Kind: token.INT, Text: "1"}, &ConstExp{Kind: token.INT, Text: "2"}}, pos)
	if len(e.Fields) != 2 || e.Fields[0].Label != "1" || e.Fields[1].Label != "2" {
		t.Errorf("tuple exp labels %v", e.Fields)
	}
	p := TuplePat([]Pat{&WildPat{}, &WildPat{}, &WildPat{}}, pos)
	if len(p.Fields) != 3 || p.Fields[2].Label != "3" {
		t.Errorf("tuple pat labels %v", p.Fields)
	}
	ty := TupleTy([]Ty{&VarTy{Name: "'a"}}, pos)
	if len(ty.Fields) != 1 || ty.Fields[0].Label != "1" {
		t.Errorf("tuple ty labels %v", ty.Fields)
	}
	if len(UnitExp(pos).Fields) != 0 || len(UnitPat(pos).Fields) != 0 {
		t.Error("unit not empty")
	}
}

func TestWideTupleLabels(t *testing.T) {
	elems := make([]Exp, 12)
	for i := range elems {
		elems[i] = &ConstExp{Kind: token.INT, Text: "0"}
	}
	e := TupleExp(elems, token.Pos{})
	if e.Fields[9].Label != "10" || e.Fields[11].Label != "12" {
		t.Errorf("wide labels %v %v", e.Fields[9].Label, e.Fields[11].Label)
	}
}

// TestInfixAppDesugaring: l op r is op applied to the pair (l, r), the
// same tree TupleExp builds, with the operator's position.
func TestInfixAppDesugaring(t *testing.T) {
	op := LongID{Parts: []string{"+"}, Pos: token.Pos{Line: 2, Col: 5}}
	l, r := &ConstExp{Kind: token.INT, Text: "1"}, &VarExp{Name: LongID{Parts: []string{"x"}}}
	want := &AppExp{Fn: &VarExp{Name: op}, Arg: TupleExp([]Exp{l, r}, op.Pos)}
	if got := InfixApp(op, l, r); !reflect.DeepEqual(got, want) {
		t.Errorf("InfixApp = %#v, want %#v", got, want)
	}
}
