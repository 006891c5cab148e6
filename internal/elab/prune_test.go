package elab_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/basis"
	"repro/internal/compiler"
	"repro/internal/elab"
	"repro/internal/lambda"
	"repro/internal/parser"
)

// nodes calls f on every node of e, a shared node once per place it
// sits.
func nodes(e lambda.Exp, f func(lambda.Exp)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *lambda.Record:
		for _, x := range e.Fields {
			nodes(x, f)
		}
	case *lambda.Select:
		nodes(e.Rec, f)
	case *lambda.Fn:
		nodes(e.Body, f)
	case *lambda.Fix:
		for _, x := range e.Fns {
			nodes(x, f)
		}
		nodes(e.Body, f)
	case *lambda.App:
		nodes(e.Fn, f)
		nodes(e.Arg, f)
	case *lambda.Let:
		nodes(e.Bind, f)
		nodes(e.Body, f)
	case *lambda.Con:
		nodes(e.Arg, f)
	case *lambda.Decon:
		nodes(e.Exp, f)
	case *lambda.ExnCon:
		nodes(e.Tag, f)
		nodes(e.Arg, f)
	case *lambda.ExnDecon:
		nodes(e.Exp, f)
	case *lambda.If:
		nodes(e.Cond, f)
		nodes(e.Then, f)
		nodes(e.Else, f)
	case *lambda.Switch:
		nodes(e.Scrut, f)
		for _, c := range e.Cases {
			nodes(c.Body, f)
		}
		nodes(e.Default, f)
	case *lambda.Prim:
		for _, x := range e.Args {
			nodes(x, f)
		}
	case *lambda.Raise:
		nodes(e.Exp, f)
	case *lambda.Handle:
		nodes(e.Body, f)
		nodes(e.Handler, f)
	}
}

// census counts the nodes of e that the prune tests look for: each
// primitive by its op name, "newexn", and "fix/N" for a group of N
// functions.
func census(e lambda.Exp) map[string]int {
	n := map[string]int{}
	nodes(e, func(x lambda.Exp) {
		switch x := x.(type) {
		case *lambda.Prim:
			n[x.Op.String()]++
		case *lambda.NewExnTag:
			n["newexn"]++
		case *lambda.Fix:
			n["fix/"+string(rune('0'+len(x.Fns)))]++
		}
	})
	return n
}

// elabUnit elaborates src over a fresh session's context, as Compile
// does before it prunes.
func elabUnit(t *testing.T, s *compiler.Session, src string) *lambda.Fn {
	t.Helper()
	decs, perrs := parser.Parse(src)
	if len(perrs) > 0 {
		t.Fatalf("%s: %v", src, perrs[0])
	}
	res, errs := elab.ElabUnit(decs, s.Context)
	if len(errs) > 0 {
		t.Fatalf("%s: %v", src, errs[0])
	}
	return res.Code
}

// TestPruneKeepsEffects: a hidden binding that can raise, allocate a
// ref, print or loop stays, as does an exception declared and handled
// in the unit; a hidden helper, a dead mutually recursive group and the
// unreached raise-Match arm go. Each unit is also run, pruned as every
// compile prunes it, and must behave as its source says.
func TestPruneKeepsEffects(t *testing.T) {
	// hidden puts decs in a structure whose signature shows only x.
	hidden := func(decs string) string {
		return "structure S : sig val x : int end = struct " + decs + " end\nval x = S.x"
	}
	cases := []struct {
		name, src string
		node      string // a census key
		raw, kept int    // its count before and after pruning
		out, err  string // what running the unit prints, and its error
		x         int64  // x after a run that succeeds
	}{
		{name: "div", src: hidden("val _ = 1 div 0 val x = 1"), node: "div", raw: 1, kept: 1, err: "Div"},
		{name: "ref", src: hidden("val r = ref 5 val x = 1"), node: "ref", raw: 1, kept: 1, x: 1},
		{name: "print", src: hidden(`val _ = print "hidden" val x = 2`), node: "print", raw: 1, kept: 1, out: "hidden", x: 2},
		{name: "loop", src: hidden("fun loop n = loop (n + 1) val _ = loop 0 val x = 3"), node: "fix/1", raw: 1, kept: 1, err: "step budget"},
		{name: "exception", src: hidden("exception E val x = (raise E) handle E => 4"), node: "newexn", raw: 1, kept: 1, x: 4},
		{name: "helper", src: hidden("fun helper y = y * 7 + 1 val x = 5"), node: "mul", raw: 1, kept: 0, x: 5},
		{name: "mutual", src: hidden("fun even 0 = true | even n = odd (n - 1) and odd 0 = false | odd n = even (n - 1) val x = 6"),
			node: "fix/2", raw: 1, kept: 0, x: 6},
		{name: "raise-match", src: "fun f (y : int) = y + 1 val x = f 6", node: "raiseMatch", raw: 1, kept: 0, x: 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			s, err := compiler.NewSession(&out)
			if err != nil {
				t.Fatal(err)
			}
			raw := elabUnit(t, s, c.src)
			before := lambda.String(raw)
			pruned := lambda.Prune(raw)
			if lambda.String(raw) != before {
				t.Errorf("Prune changed its input")
			}
			if got := census(raw)[c.node]; got != c.raw {
				t.Errorf("%d %s nodes before pruning, want %d in\n%s", got, c.node, c.raw, before)
			}
			if got := census(pruned)[c.node]; got != c.kept {
				t.Errorf("%d %s nodes after pruning, want %d in\n%s", got, c.node, c.kept, lambda.String(pruned))
			}

			s.Machine.MaxSteps = 100_000
			_, err = s.Run("prune.sml", c.src)
			if out.String() != c.out {
				t.Errorf("printed %q, want %q", out.String(), c.out)
			}
			switch {
			case c.err != "":
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("run error %v, want one naming %q", err, c.err)
				}
			case err != nil:
				t.Fatal(err)
			default:
				if got := intOf(t, s, "x"); got != c.x {
					t.Errorf("x = %d, want %d", got, c.x)
				}
			}
		})
	}
}

// TestPruneSharedRuleNodes prunes a match whose failure call sits at
// several places of one term (pat.go's ruleNodes.fail): the input is
// left as it was, and the pruned unit matches as the source says.
func TestPruneSharedRuleNodes(t *testing.T) {
	const src = `
fun g (SOME 1, 2) = 10 | g (SOME n, _) = n | g (NONE, _) = 0
val x = g (SOME 1, 2) + g (SOME 1, 3) + g (SOME 5, 2) + g (NONE, 2)`
	s := newSession(t)
	raw := elabUnit(t, s, src)
	seen := map[lambda.Exp]int{}
	nodes(raw, func(e lambda.Exp) {
		if _, ok := e.(*lambda.App); ok {
			seen[e]++
		}
	})
	shared := 0
	for _, n := range seen {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no failure call sits at two places in\n%s", lambda.String(raw))
	}
	checkPrune(t, raw)
	mustRun(t, s, src)
	if got := intOf(t, s, "x"); got != 10+1+5+0 {
		t.Errorf("x = %d, want 16", got)
	}
}

// TestPrunePrelude prunes the prelude, the largest term the compiler
// elaborates.
func TestPrunePrelude(t *testing.T) {
	decs, perrs := parser.Parse(compiler.PreludeSource)
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	res, errs := elab.ElabUnit(decs, basis.PrimEnv())
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if pruned := checkPrune(t, res.Code); lambda.Size(pruned) == lambda.Size(res.Code) {
		t.Errorf("nothing pruned from the prelude's %d nodes", lambda.Size(res.Code))
	}
}

// checkPrune prunes raw and checks that raw is left as it was, that
// the term did not grow, and that pruning again changes nothing, not
// even a node's identity.
func checkPrune(t *testing.T, raw *lambda.Fn) *lambda.Fn {
	t.Helper()
	before := lambda.String(raw)
	pruned := lambda.Prune(raw)
	if lambda.String(raw) != before {
		t.Errorf("Prune changed its input")
	}
	if lambda.Size(pruned) > lambda.Size(raw) {
		t.Errorf("Prune grew the term from %d to %d nodes", lambda.Size(raw), lambda.Size(pruned))
	}
	if again := lambda.Prune(pruned); again != pruned {
		t.Errorf("Prune is not idempotent")
	}
	return pruned
}
