package elab_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/lambda"
	smlparser "repro/internal/parser"
	"repro/internal/workload"
)

// TestElaboratedShapes elaborates the golden corpus, the SML of every
// example program and the exec-heavy program's units, and checks that
// the terms hold only the shapes the closure builder runs as they
// stand: no application of a literal function, whether a constructor
// function, #label, an eta-expanded primitive or fn x => e; no
// constructor or call whose tuple argument first let-binds its fields
// one by one; and no list literal that so binds its elements. A record
// written out of label order keeps its Lets, which bind its fields in
// an order other than the record's.
func TestElaboratedShapes(t *testing.T) {
	projects := map[string][]string{}
	for name, p := range workload.GoldenCorpus() {
		for _, f := range p.Files {
			projects[name] = append(projects[name], f.Source)
		}
	}
	examples, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples (%v)", err)
	}
	// An example's raw strings may hold text that is not SML, and SML
	// the example compiles to show its error: those are skipped.
	mayFail := map[string]bool{}
	for _, path := range examples {
		name := filepath.Base(filepath.Dir(path))
		projects[name], mayFail[name] = rawStrings(t, path), true
	}
	projects["exec-heavy"] = execHeavySources()

	names := make([]string, 0, len(projects))
	for name := range projects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := newSession(t)
		for i, src := range projects[name] {
			unit := fmt.Sprintf("%s/%d", name, i)
			decs, perrs := smlparser.Parse(src)
			if len(perrs) > 0 {
				if !mayFail[name] {
					t.Fatalf("%s: %v", unit, perrs[0])
				}
				continue
			}
			res, errs := elab.ElabUnit(decs, s.Context)
			if len(errs) > 0 {
				if !mayFail[name] {
					t.Fatalf("%s: %v", unit, errs[0])
				}
				continue
			}
			var c shapeCheck
			c.exp(res.Code)
			for _, bad := range c.bad {
				t.Errorf("%s: %s", unit, bad)
			}
			u, err := s.Compile(unit, src)
			if err != nil {
				t.Fatalf("%s: %v", unit, err)
			}
			s.Accept(u)
		}
	}
}

// rawStrings returns the raw string literals of a Go file in source
// order: an example program's SML.
func rawStrings(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return true
	})
	return out
}

// execHeavySources returns units of the benchmark's exec-heavy program
// as its generator writes them: the shared ref, and compute units with
// and without the shared update.
func execHeavySources() []string {
	out := []string{"structure Shared = struct\n  val r = ref 7\nend\n"}
	for i := 1; i <= 6; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "structure C%02d = struct\n", i)
		sb.WriteString("  fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n")
		fmt.Fprintf(&sb, "  val xs = List.tabulate (2000, fn i => (i * %d + %d) mod 1009)\n", i, 10*i)
		fmt.Fprintf(&sb, "  val sum = foldl (fn (x, acc) => (acc * 31 + x) mod 1000003) %d xs\n", i)
		sb.WriteString("  val check = (fib 19 + sum) mod 1000003\n")
		if i%6 == 0 {
			sb.WriteString("  val _ = Shared.r := (!Shared.r * 7 + check) mod 1000003\n")
			fmt.Fprintf(&sb, "  val _ = print (\"C%02d \" ^ Int.toString check ^ \" shared \" ^ Int.toString (!Shared.r) ^ \"\\n\")\n", i)
		} else {
			fmt.Fprintf(&sb, "  val _ = print (\"C%02d \" ^ Int.toString check ^ \"\\n\")\n", i)
		}
		sb.WriteString("end\n")
		out = append(out, sb.String())
	}
	return out
}

// shapeCheck walks a term and collects the shapes TestElaboratedShapes
// rules out.
type shapeCheck struct {
	bad []string
}

func (c *shapeCheck) exp(e lambda.Exp) {
	switch e := e.(type) {
	case *lambda.Var, *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
		*lambda.NewExnTag, *lambda.Builtin:
	case *lambda.Record:
		c.exps(e.Fields)
	case *lambda.Select:
		c.exp(e.Rec)
	case *lambda.Fn:
		c.exp(e.Body)
	case *lambda.Fix:
		for _, f := range e.Fns {
			c.exp(f)
		}
		c.exp(e.Body)
	case *lambda.App:
		if _, ok := e.Fn.(*lambda.Fn); ok {
			c.bad = append(c.bad, "a literal function applied: "+lambda.String(e))
		}
		c.arg(e.Arg)
		c.exp(e.Fn)
		c.exp(e.Arg)
	case *lambda.Let:
		if sp := letSpine(e); sameVars(listElems(sp.body), sp.lvs) {
			c.bad = append(c.bad, "a list literal of let-bound elements: "+lambda.String(e))
		}
		c.exp(e.Bind)
		c.exp(e.Body)
	case *lambda.Con:
		if e.Arg != nil {
			c.arg(e.Arg)
			c.exp(e.Arg)
		}
	case *lambda.Decon:
		c.exp(e.Exp)
	case *lambda.ExnCon:
		c.exp(e.Tag)
		if e.Arg != nil {
			c.exp(e.Arg)
		}
	case *lambda.ExnDecon:
		c.exp(e.Exp)
	case *lambda.If:
		c.exp(e.Cond)
		c.exp(e.Then)
		c.exp(e.Else)
	case *lambda.Switch:
		c.exp(e.Scrut)
		for i := range e.Cases {
			c.exp(e.Cases[i].Body)
		}
		if e.Default != nil {
			c.exp(e.Default)
		}
	case *lambda.Prim:
		c.exps(e.Args)
	case *lambda.Raise:
		c.exp(e.Exp)
	case *lambda.Handle:
		c.exp(e.Body)
		c.exp(e.Handler)
	default:
		c.bad = append(c.bad, fmt.Sprintf("unknown node %T", e))
	}
}

func (c *shapeCheck) exps(es []lambda.Exp) {
	for _, e := range es {
		c.exp(e)
	}
}

// arg checks a constructor's or call's argument: a 2- or 3-field tuple
// must not let-bind its fields first.
func (c *shapeCheck) arg(e lambda.Exp) {
	l, ok := e.(*lambda.Let)
	if !ok {
		return
	}
	sp := letSpine(l)
	if r, ok := sp.body.(*lambda.Record); ok && (len(r.Fields) == 2 || len(r.Fields) == 3) && sameVars(r.Fields, sp.lvs) {
		c.bad = append(c.bad, "a tuple argument of let-bound fields: "+lambda.String(e))
	}
}

// spine is a chain of Lets: the variables they bind, in order, and the
// body of the last.
type spine struct {
	lvs  []lambda.LVar
	body lambda.Exp
}

func letSpine(e *lambda.Let) spine {
	var sp spine
	for l, ok := e, true; ok; l, ok = sp.body.(*lambda.Let) {
		sp.lvs = append(sp.lvs, l.LV)
		sp.body = l.Body
	}
	return sp
}

// listElems returns the elements of the :: cells at e.
func listElems(e lambda.Exp) []lambda.Exp {
	var out []lambda.Exp
	for {
		cell, ok := e.(*lambda.Con)
		if !ok || cell.Name != "::" {
			return out
		}
		pair, ok := cell.Arg.(*lambda.Record)
		if !ok || len(pair.Fields) != 2 {
			return out
		}
		out = append(out, pair.Fields[0])
		e = pair.Fields[1]
	}
}

// sameVars reports whether es reads exactly the variables lvs, in order.
func sameVars(es []lambda.Exp, lvs []lambda.LVar) bool {
	if len(es) != len(lvs) {
		return false
	}
	for i, e := range es {
		if v, ok := e.(*lambda.Var); !ok || v.LV != lvs[i] {
			return false
		}
	}
	return true
}

// TestElaboratedShapesCheck runs the shape check on the shapes it rules
// out and on those it allows: a record out of label order, and a tuple
// of variables a pattern bound, built where it is not an argument.
func TestElaboratedShapesCheck(t *testing.T) {
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	one := &lambda.Int{Val: 1}
	cons := func(x, xs lambda.Exp) lambda.Exp {
		return &lambda.Con{Tag: 1, Name: "::", Arg: &lambda.Record{Fields: []lambda.Exp{x, xs}}}
	}
	fields := func(r *lambda.Record) lambda.Exp {
		return &lambda.Let{LV: 1, Bind: one, Body: &lambda.Let{LV: 2, Bind: one, Body: r}}
	}
	tuple := fields(&lambda.Record{Fields: []lambda.Exp{v(1), v(2)}})
	for _, tc := range []struct {
		name string
		e    lambda.Exp
		bad  bool
	}{
		{"redex", &lambda.App{Fn: &lambda.Fn{Param: 1, Body: v(1)}, Arg: one}, true},
		{"call of a let-bound tuple", &lambda.App{Fn: v(3), Arg: tuple}, true},
		{"constructor of a let-bound tuple", &lambda.Con{Tag: 1, Name: "SOME", Arg: tuple}, true},
		{"let-bound list", &lambda.Let{LV: 1, Bind: one, Body: cons(v(1), &lambda.Con{Name: "nil"})}, true},
		{"tuple not an argument", tuple, false},
		{"out of order", &lambda.App{Fn: v(3), Arg: fields(&lambda.Record{Fields: []lambda.Exp{v(2), v(1)}})}, false},
		{"bare", &lambda.App{Fn: v(3), Arg: &lambda.Record{Fields: []lambda.Exp{one, cons(one, v(4))}}}, false},
	} {
		var c shapeCheck
		c.exp(tc.e)
		if got := len(c.bad) > 0; got != tc.bad {
			t.Errorf("%s: flagged %v (%q), want %v", tc.name, got, c.bad, tc.bad)
		}
	}
}
