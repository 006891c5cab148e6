package elab_test

import (
	"bytes"
	"testing"

	"repro/internal/basis"
	"repro/internal/compiler"
	"repro/internal/elab"
	"repro/internal/lambda"
	"repro/internal/parser"
)

// tupleShape counts the non-empty Record and the Select nodes of a
// term.
type tupleShape struct{ records, selects int }

func (s *tupleShape) walk(e lambda.Exp) {
	switch e := e.(type) {
	case *lambda.Record:
		if len(e.Fields) > 0 {
			s.records++
		}
		s.walks(e.Fields...)
	case *lambda.Select:
		s.selects++
		s.walk(e.Rec)
	case *lambda.Fn:
		s.walk(e.Body)
	case *lambda.Fix:
		for _, f := range e.Fns {
			s.walk(f)
		}
		s.walk(e.Body)
	case *lambda.App:
		s.walks(e.Fn, e.Arg)
	case *lambda.Let:
		s.walks(e.Bind, e.Body)
	case *lambda.Con:
		if e.Arg != nil {
			s.walk(e.Arg)
		}
	case *lambda.Decon:
		s.walk(e.Exp)
	case *lambda.If:
		s.walks(e.Cond, e.Then, e.Else)
	case *lambda.Switch:
		s.walk(e.Scrut)
		for _, c := range e.Cases {
			s.walk(c.Body)
		}
		if e.Default != nil {
			s.walk(e.Default)
		}
	case *lambda.Prim:
		s.walks(e.Args...)
	}
}

func (s *tupleShape) walks(es ...lambda.Exp) {
	for _, e := range es {
		s.walk(e)
	}
}

// TestCurriedClausesBuildNoTuple: a curried clausal function matches
// each column against its own parameter. Its code builds no tuple of
// the parameters and selects from none; the only Selects left take
// apart a value the caller passed, a tuple or a cons cell. Each
// program prints what SML says.
func TestCurriedClausesBuildNoTuple(t *testing.T) {
	cases := []struct {
		fun, use, out string
		selects       int
	}{
		{"fun f a b c = a + b * c", "Int.toString (f 1 2 3)", "7", 0},
		{"fun h 0 y _ = y | h x y z = x + y + z", "Int.toString (h 0 5 9 + h 1 2 3)", "11", 0},
		{"fun len acc [] = acc | len acc (_ :: t) = len (acc + 1) t", "Int.toString (len 0 [4, 5, 6])", "3", 1},
		{"fun k (a, b) 0 = a | k (a, b) c = a + b + c", "Int.toString (k (1, 2) 0 + k (1, 2) 3)", "7", 4},
		{`fun g (l as _ :: _) "x" = l | g _ _ = []`, `Int.toString (length (g [1, 2] "x" @ g [3] "y"))`, "2", 0},
	}
	for _, c := range cases {
		decs, perrs := parser.Parse(c.fun)
		if len(perrs) > 0 {
			t.Fatalf("%s: %v", c.fun, perrs[0])
		}
		res, errs := elab.ElabUnit(decs, basis.PrimEnv())
		if len(errs) > 0 {
			t.Fatalf("%s: %v", c.fun, errs[0])
		}
		fix := findFix(res.Code)
		if fix == nil {
			t.Fatalf("%s: no fix in\n%s", c.fun, lambda.String(res.Code))
		}
		var got tupleShape
		got.walk(fix.Fns[0])
		if got.records != 0 || got.selects != c.selects {
			t.Errorf("%s: %d records, %d selects; want none and %d in\n%s",
				c.fun, got.records, got.selects, c.selects, lambda.String(fix.Fns[0]))
		}

		var out bytes.Buffer
		s, err := compiler.NewSession(&out)
		if err != nil {
			t.Fatal(err)
		}
		u, err := s.Compile("clausal.sml", c.fun+"\nval _ = print ("+c.use+")")
		if err != nil {
			t.Fatalf("%s: %v", c.fun, err)
		}
		if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
			t.Fatalf("%s: %v", c.fun, err)
		}
		if out.String() != c.out {
			t.Errorf("%s: printed %q, want %q", c.fun, out.String(), c.out)
		}
	}
}

// findFix returns the first Fix on the spine of a unit's code.
func findFix(e lambda.Exp) *lambda.Fix {
	for {
		switch n := e.(type) {
		case *lambda.Fix:
			return n
		case *lambda.Fn:
			e = n.Body
		case *lambda.Let:
			e = n.Body
		default:
			return nil
		}
	}
}
