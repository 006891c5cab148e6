package lambda

import (
	"sync"
	"testing"
)

// Term builders for the tests below.
func v(lv LVar) *Var                { return &Var{LV: lv} }
func let(lv LVar, b, body Exp) *Let { return &Let{LV: lv, Bind: b, Body: body} }
func fn(p LVar, body Exp) *Fn       { return &Fn{Param: p, Body: body} }
func rec(fs ...Exp) *Record         { return &Record{Fields: fs} }
func sel(i int, r Exp) *Select      { return &Select{Idx: i, Rec: r} }
func fix(names []LVar, fns []*Fn, body Exp) *Fix {
	return &Fix{Names: names, Fns: fns, Body: body}
}
func prim(op Op, args ...Exp) *Prim { return &Prim{Op: op, Args: args} }

// TestPruneTerms pins what each rewrite makes of hand-built terms: the
// unit root is fn v1, and its body's value is the export record.
func TestPruneTerms(t *testing.T) {
	one := &Int{Val: 1}
	cases := []struct {
		name string
		in   Exp
		want string
	}{{
		// matchSig's coercion: every member in a record, the exports
		// selected from it. The helper v3 goes, f stays.
		name: "ascription",
		in: let(10, fix([]LVar{2}, []*Fn{fn(4, prim(OpAdd, v(4), one))},
			fix([]LVar{3}, []*Fn{fn(5, prim(OpMul, v(5), v(5)))},
				let(6, &Str{Val: "t"}, rec(v(2), v(3), v(6))))),
			rec(sel(0, v(10)), sel(2, v(10)))),
		want: `(fix v2 = (fn v4 => %add(v4, 1)) in (let v6 = "t" in (v2, v6)))`,
	}, {
		// A chain of Selects through nested records (a substructure)
		// becomes the one variable at its end.
		name: "select-chain",
		in: let(7, rec(v(1)),
			let(8, rec(v(1), v(7)),
				let(9, rec(v(8)), rec(sel(0, sel(1, sel(0, v(9)))))))),
		want: `(v1)`,
	}, {
		// A record also read whole stays, and its Selects still forward.
		name: "whole-read",
		in:   let(7, rec(v(1)), rec(v(7), sel(0, v(7)))),
		want: `(let v7 = (v1) in (v7, v1))`,
	}, {
		// An out-of-range Select is left as it is, and so keeps its
		// record.
		name: "out-of-range",
		in:   let(7, rec(v(1)), rec(sel(3, v(7)))),
		want: `(let v7 = (v1) in (v7.3))`,
	}, {
		// A mutually recursive group read only by itself goes; one read
		// from outside stays whole.
		name: "fix-group",
		in: fix([]LVar{2, 3}, []*Fn{fn(4, &App{Fn: v(3), Arg: v(4)}), fn(5, &App{Fn: v(2), Arg: v(5)})},
			fix([]LVar{6, 7}, []*Fn{fn(8, &App{Fn: v(7), Arg: v(8)}), fn(9, v(9))},
				rec(v(6)))),
		want: `(fix v6 = (fn v8 => (v7 v8)) and v7 = (fn v9 => v9) in (v6))`,
	}, {
		// What can raise, loop, allocate a ref or print stays, read or
		// not; what only builds a value goes.
		name: "effects",
		in: let(2, prim(OpDiv, one, &Int{Val: 0}),
			let(3, prim(OpRef, one),
				let(4, prim(OpPrint, &Str{Val: "hi"}),
					let(5, &App{Fn: v(1), Arg: one},
						let(6, &Raise{Exp: v(1)},
							let(7, &NewExnTag{Name: "E"},
								let(8, &Con{Tag: 1, Name: "SOME", Arg: rec(one, v(1))},
									let(9, fn(10, prim(OpDiv, v(10), v(10))),
										let(11, &Select{Idx: 0, Rec: v(1)},
											rec()))))))))),
		want: `(let v2 = %div(1, 0) in (let v3 = %ref(1) in (let v4 = %print("hi") in ` +
			`(let v5 = (v1 1) in (let v6 = raise(v1) in (let v7 = newexn(E) in (let v11 = v1.0 in ())))))))`,
	}, {
		// A binding read only by a dead binding goes with it.
		name: "cascade",
		in: let(2, fn(3, v(3)),
			let(4, rec(v(2), one),
				let(5, &Con{Tag: 0, Name: "C", Arg: v(4)}, rec()))),
		want: `()`,
	}, {
		// The match compiler's unreached raise-Match arm goes; the
		// fallthrough thunk a Switch calls stays.
		name: "match-arms",
		in: let(2, fn(3, prim(OpRaiseMatch)),
			let(4, fn(5, one),
				&Switch{Kind: SwitchInt, Scrut: v(1),
					Cases:   []Case{{IntKey: 0, Body: &Int{Val: 7}}},
					Default: &App{Fn: v(4), Arg: rec()}})),
		want: `(let v4 = (fn v5 => 1) in (switch v1 | 0 => 7 | _ => (v4 ())))`,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := fn(1, c.in)
			before := String(root)
			got := Prune(root)
			if s := String(got.Body); s != c.want {
				t.Errorf("pruned to\n%s\nwant\n%s", s, c.want)
			}
			if String(root) != before {
				t.Errorf("Prune changed its input:\n%s\nwas\n%s", String(root), before)
			}
			checkFixpoint(t, root, got)
		})
	}
}

// TestPruneSharedNodes prunes a term in which one node sits at two
// places, as the elaborator's match failure call does: a shared Let
// that binds a dead helper and a live value, under both arms of an If.
// Each place is pruned as if it held its own copy, and the shared node
// itself is left as it was.
func TestPruneSharedNodes(t *testing.T) {
	shared := let(3, fn(4, v(4)), let(5, rec(v(1)), sel(0, v(5))))
	fail := &App{Fn: v(2), Arg: rec()}
	root := fn(1, let(2, fn(6, prim(OpRaiseMatch)),
		&If{Cond: v(1), Then: &If{Cond: v(1), Then: shared, Else: fail}, Else: &If{Cond: v(1), Then: shared, Else: fail}}))
	before := String(root)
	got := Prune(root)
	const want = `(let v2 = (fn v6 => %raiseMatch()) in (if v1 then (if v1 then v1 else (v2 ())) else (if v1 then v1 else (v2 ()))))`
	if s := String(got.Body); s != want {
		t.Errorf("pruned to\n%s\nwant\n%s", s, want)
	}
	if String(root) != before || shared.LV != 3 || shared.Body.(*Let).LV != 5 {
		t.Errorf("Prune changed its input:\n%s\nwas\n%s", String(root), before)
	}
	checkFixpoint(t, root, got)
}

// checkFixpoint checks that got, pruned from in, is no larger, and that
// pruning it again changes nothing, not even a node's identity.
func checkFixpoint(t *testing.T, in, got *Fn) {
	t.Helper()
	if Size(got) > Size(in) {
		t.Errorf("Prune grew the term from %d to %d nodes", Size(in), Size(got))
	}
	if again := Prune(got); again != got {
		t.Errorf("Prune is not idempotent:\n%s\nthen\n%s", String(got), String(again))
	}
}

func TestPruneNeverGrows(t *testing.T) {
	// Floating a deep spine keeps every node.
	var body Exp = rec(v(3))
	for lv := LVar(40); lv > 3; lv-- {
		body = let(lv, prim(OpPrint, &Str{Val: "x"}), body)
	}
	root := fn(1, let(2, let(3, prim(OpRef, v(1)), body), v(2)))
	got := Prune(root)
	if Size(got) != Size(root) {
		t.Errorf("size %d, was %d", Size(got), Size(root))
	}
	if _, ok := got.Body.(*Let).Bind.(*Prim); !ok {
		t.Errorf("spine not floated: %s", String(got))
	}
	checkFixpoint(t, root, got)
}

// TestPruneConcurrent prunes one term from several goroutines at once,
// as a parallel build's compile workers do: each call takes its own
// state from the pool, and none writes the shared input.
func TestPruneConcurrent(t *testing.T) {
	shared := let(3, fn(4, v(4)), let(5, rec(v(1), v(3)), sel(0, v(5))))
	root := fn(1, let(2, let(6, prim(OpPrint, &Str{Val: "x"}), rec(shared, v(6))), sel(0, v(2))))
	want := String(Prune(root))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := String(Prune(root)); got != want {
					t.Errorf("pruned to %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
