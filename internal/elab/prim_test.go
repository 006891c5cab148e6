package elab_test

import (
	"testing"

	"repro/internal/basis"
	"repro/internal/elab"
	"repro/internal/lambda"
	"repro/internal/parser"
)

// primShape counts what a unit's code makes of its one primitive use:
// the Prim nodes of op, the applications, and the Prim nodes of op
// whose operands are not all plain variables.
type primShape struct {
	prims, apps, indirect int
}

func (s *primShape) walk(t *testing.T, op string, e lambda.Exp) {
	switch e := e.(type) {
	case *lambda.Var:
	case *lambda.Record:
		for _, f := range e.Fields {
			s.walk(t, op, f)
		}
	case *lambda.Select:
		s.walk(t, op, e.Rec)
	case *lambda.Fn:
		s.walk(t, op, e.Body)
	case *lambda.Let:
		s.walk(t, op, e.Bind)
		s.walk(t, op, e.Body)
	case *lambda.App:
		s.apps++
		s.walk(t, op, e.Fn)
		s.walk(t, op, e.Arg)
	case *lambda.Prim:
		if e.Op.String() != op {
			break
		}
		s.prims++
		for _, a := range e.Args {
			if _, ok := a.(*lambda.Var); !ok {
				s.indirect++
			}
			s.walk(t, op, a)
		}
	default:
		t.Fatalf("unexpected node %T in %s", e, lambda.String(e))
	}
}

// TestSaturatedPrimIsOnePrim: x + y and ~ x elaborate to one Prim on
// the operands' variables, with no eta-expansion Fn applied to a Let
// chain and a tuple. A use that does not saturate the primitive keeps
// the body of its eta-expansion, with the argument bound to its
// parameter: no application is left.
func TestSaturatedPrimIsOnePrim(t *testing.T) {
	cases := []struct {
		src, op string
		want    primShape
	}{
		{"val f = fn x => fn y => x + y", "add", primShape{prims: 1}},
		{"val g = fn x => ~ x", "neg", primShape{prims: 1}},
		{"val h = fn p => op+ p", "add", primShape{prims: 1, indirect: 2}},
		{"val k = fn x => fn y => op- {2 = y, 1 = x}", "sub", primShape{prims: 1, indirect: 2}},
		{"val op+ = fn (x, y) => x * y  val m = fn x => fn y => x + y", "mul", primShape{prims: 1, apps: 1}},
	}
	for _, c := range cases {
		decs, perrs := parser.Parse(c.src)
		if len(perrs) > 0 {
			t.Fatalf("%s: %v", c.src, perrs[0])
		}
		res, errs := elab.ElabUnit(decs, basis.PrimEnv())
		if len(errs) > 0 {
			t.Fatalf("%s: %v", c.src, errs[0])
		}
		var got primShape
		got.walk(t, c.op, res.Code)
		if got != c.want {
			t.Errorf("%s: %d %s prims (%d on non-variables), %d applications; want %+v in\n%s",
				c.src, got.prims, c.op, got.indirect, got.apps, c.want, lambda.String(res.Code))
		}
	}
}
