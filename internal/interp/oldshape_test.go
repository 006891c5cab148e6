package interp_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/lambda"
)

// TestOldShapesRunPlain runs terms in shapes the elaborator no longer
// emits, as a hand-built or forged bin may still hold them: a literal
// function applied, in a call chain and around a join point's call,
// and a constructor over a tuple whose fields are let-bound first. The
// closure builder has no rule for them, so they take the plain
// application and record paths. Compiled, and loaded from the emitted
// code section, each must give the reference walker's value, and the
// two forms must take the same steps.
func TestOldShapesRunPlain(t *testing.T) {
	var g lambda.Gen
	p, q, a, b, c, j, x := g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh()
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	sel := func(i int) lambda.Exp { return &lambda.Select{Idx: i, Rec: v(p)} }
	prim := func(op lambda.Op, l, r lambda.Exp) lambda.Exp { return &lambda.Prim{Op: op, Args: []lambda.Exp{l, r}} }
	// letTuple is let a = #0 p in let b = #1 p [in let c = #2 p] in (a, b[, c]).
	letTuple := func(n int) lambda.Exp {
		lvs := []lambda.LVar{a, b, c}[:n]
		fields := make([]lambda.Exp, n)
		for i, lv := range lvs {
			fields[i] = v(lv)
		}
		var e lambda.Exp = &lambda.Record{Fields: fields}
		for i := n - 1; i >= 0; i-- {
			e = &lambda.Let{LV: lvs[i], Bind: sel(i), Body: e}
		}
		return e
	}
	conFn := func(name string) *lambda.Fn {
		return &lambda.Fn{Param: q, Body: &lambda.Con{Tag: 1, Name: name, Arg: v(q)}}
	}
	cases := []struct {
		name string
		body lambda.Exp // under fn p => ..., applied to (3, 4, 5)
	}{
		{"redex", &lambda.App{
			Fn:  &lambda.Fn{Param: q, Body: prim(lambda.OpSub, &lambda.Select{Idx: 1, Rec: v(q)}, &lambda.Select{Idx: 0, Rec: v(q)})},
			Arg: v(p),
		}},
		{"redex chain", &lambda.App{
			Fn: &lambda.App{
				Fn:  &lambda.Fn{Param: a, Body: &lambda.Fn{Param: b, Body: prim(lambda.OpSub, v(a), v(b))}},
				Arg: sel(2),
			},
			Arg: sel(0),
		}},
		{"join call in a redex", &lambda.Let{
			LV:   j,
			Bind: &lambda.Fn{Param: x, Body: prim(lambda.OpMul, v(x), sel(1))},
			Body: &lambda.App{Fn: &lambda.Fn{Param: q, Body: &lambda.App{Fn: v(j), Arg: v(q)}}, Arg: sel(2)},
		}},
		{"constructor function redex", &lambda.App{Fn: conFn("C"), Arg: letTuple(2)}},
		{"constructor redex of three", &lambda.App{Fn: conFn("N"), Arg: letTuple(3)}},
		{"constructor of a let tuple", &lambda.Con{Tag: 1, Name: "SOME", Arg: letTuple(2)}},
		{"call of a let tuple", &lambda.App{
			Fn:  &lambda.Fn{Param: q, Body: prim(lambda.OpAdd, &lambda.Select{Idx: 0, Rec: v(q)}, &lambda.Select{Idx: 2, Rec: v(q)})},
			Arg: letTuple(3),
		}},
	}
	arg := func() interp.Value {
		r, fs := interp.NewRecord(3)
		copy(fs, []interp.Value{interp.IntV(3), interp.IntV(4), interp.IntV(5)})
		return r
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := &lambda.Fn{Param: p, Body: tc.body}
			m := interp.NewMachine()
			f, err := m.Eval(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Apply(f, arg())
			if err != nil {
				t.Fatal(err)
			}
			compiled, _, _, err := interp.CompileFn("term", root)
			if err != nil {
				t.Fatal(err)
			}
			var steps [2]uint64
			for i, prog := range []*interp.CompiledFn{compiled, loadTerm(t, root)} {
				m := interp.NewMachine()
				got, err := m.Apply(&interp.CompiledClosure{Fn: prog}, arg())
				if err != nil {
					t.Fatalf("form %d: %v", i, err)
				}
				if !interp.Eq(got, want) {
					t.Errorf("form %d: %s, reference %s", i, interp.String(got), interp.String(want))
				}
				steps[i] = m.Steps
			}
			if steps[0] != steps[1] {
				t.Errorf("compiled took %d steps, loaded %d", steps[0], steps[1])
			}
		})
	}
}
