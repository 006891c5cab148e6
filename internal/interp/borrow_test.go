package interp_test

// Borrowed argument tuples (DESIGN.md §4j): a call whose argument is a
// two- or three-field tuple lends the callee a pooled tuple when the
// callee only selects from its parameter in its own activation, and
// takes the tuple back when the call returns. Lending must never be
// observable. Each program here runs through the reference walker,
// compiled, loaded from its bin and profiled, and all four must print
// and export the same; the callee's borrow bit must be what the rule
// says, compiled and loaded alike.

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/pickle"
)

// borrowCase is a program, what it prints, and the export slot of the
// function whose borrow bit it pins.
type borrowCase struct {
	name    string
	src     string
	out     string
	callee  int
	borrows bool
}

// borrowCases are the programs of the borrowing tests, in the order
// FuzzExecTreeVsClosure appends them to its seeds.
var borrowCases = []borrowCase{
	// Must not borrow: the callee returns, passes on, stores or
	// captures its parameter, so the tuple would outlive the call.
	{"returns", "val id = fn (p : int * int) => p\nval a = id (1, 2)\nval b = id (3, 4)\nval _ = print (Int.toString (#1 a + #2 b))",
		"5", 0, false},
	{"passes-on", "fun g (x, y) = x - y\nval f = fn p => g p\nval r = f (7, 2)\nval _ = print (Int.toString r)",
		"5", 1, false},
	{"stores", "val r = ref (0, 0)\nval f = fn p => (r := p; #1 p)\nval a = f (1, 2)\nval b = f (3, 4)\nval c = !r\nval _ = print (Int.toString (a + b + #1 c + #2 c))",
		"11", 1, false},
	{"captures", "val f = fn (p : int * int) => fn () => #2 p\nval k1 = f (1, 2)\nval k2 = f (3, 4)\nval _ = print (Int.toString (k1 () * 10 + k2 ()))",
		"24", 0, false},
	// Only selects, but its frame escapes into the closure it returns,
	// which would keep the tuple in the frame's slot 0.
	{"escapes", "val f = fn (x, y) => fn () => x * 10 + y\nval k1 = f (1, 2)\nval k2 = f (3, 4)\nval _ = print (Int.toString (k1 () + k2 ()))",
		"46", 0, false},
	// Must borrow: the callee only selects from its parameter.
	{"nested", "val f = fn (x, y) => x * 100 + y\nval r = f (f (1, 2), f (3, 4))\nval _ = print (Int.toString r)",
		"10504", 0, true},
	{"recursive", "val rec loop = fn (n, acc) => if n = 0 then acc else loop (n - 1, acc + n)\nval r = loop (100, 0)\nval _ = print (Int.toString r)",
		"5050", 0, true},
	{"op-plus-foldl", "val plus = op+\nval s = foldl op+ 0 [1, 2, 3, 4]\nval t = foldl plus s [5, 6]\nval _ = print (Int.toString t)",
		"21", 0, true},
	{"three-fields", "val g = fn (a, b, c) => a * 100 + b * 10 + c\nval r = g (1, 2, 3) + g (g (1, 1, 1), 0, 4)\nval _ = print (Int.toString r)",
		"11227", 0, true},
	{"raises", "exception E of int\nval f = fn (x, y) => if x = 0 then raise E y else x + y\nval a = f (0, 5) handle E n => n * 2\nval b = f (1, 2)\nval c = f (2, f (0, 7)) handle E n => n + 100\nval d = f (3, f (4, 5))\nval _ = print (Int.toString a ^ \" \" ^ Int.toString b ^ \" \" ^ Int.toString c ^ \" \" ^ Int.toString d)",
		"10 3 107 12", 1, true},
	// A clausal function matches on its parameter itself, with no alias.
	{"fun-tuple", "fun loop (n, acc) = if n = 0 then acc else loop (n - 1, acc + n)\nfun f (x, y) = x * 100 + y\nval r = f (loop (10, 0), loop (3, 1))\nval _ = print (Int.toString r)",
		"5507", 0, true},
	// The argument is a constructor cell's own pair, taken out by a
	// pattern: a plain call, never lent, so the pair is never given
	// back to the pool, and the lent tuple of f (3, 4) is not the cell's.
	{"decon-pair", deconPairSource, "12 34 12 12", 0, true},
}

// deconPairSource passes the pair of a constructor cell, built as one
// allocation, to a borrowing callee, between lent calls of the same
// callee, and reads the cell again after them.
const deconPairSource = `datatype p = P of int * int
val f = fn (x, y) => x * 10 + y
fun g (P q) = f q
val v = P (1, 2)
val a = g v
val b = f (3, 4)
val c = g v
val d = case v of P (x, y) => x * 10 + y
val _ = print (Int.toString a ^ " " ^ Int.toString b ^ " " ^ Int.toString c ^ " " ^ Int.toString d)`

// TestBorrowDeconPairNotPooled pins that a borrowing callee applied to
// a constructor cell's pair does not give it to the tuple pool: lend
// gives back only the tuples it took.
func TestBorrowDeconPairNotPooled(t *testing.T) {
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("decon.sml", deconPairSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	lookup := func(i int) interp.Value {
		v, _ := s.Dyn.Lookup(u.ExportPid(i))
		return v
	}
	f, g, v := lookup(0), lookup(1), lookup(2)
	if c, ok := f.(*interp.CompiledClosure); !ok || !interp.Borrows(c.Fn) {
		t.Fatalf("f = %v: want a borrowing closure", f)
	}
	cell, ok := v.(*interp.ConV)
	if !ok {
		t.Fatalf("v = %s, not a constructed value", interp.String(v))
	}
	pair := cell.Arg
	for i := range 3 {
		if got, err := s.Machine.Apply(g, v); err != nil || got != interp.IntV(12) {
			t.Fatalf("call %d: g v = %v (%v), want 12", i, got, err)
		}
		if interp.Pooled(s.Machine, pair) {
			t.Fatalf("call %d: the cell's pair is in the tuple pool", i)
		}
		arg, fs := interp.NewRecord(2)
		fs[0], fs[1] = interp.IntV(3), interp.IntV(4)
		if got, err := s.Machine.Apply(f, arg); err != nil || got != interp.IntV(34) {
			t.Fatalf("call %d: f (3, 4) = %v (%v), want 34", i, got, err)
		}
	}
	if got := interp.String(v); got != "P (1, 2)" {
		t.Errorf("v = %s after the calls, want P (1, 2)", got)
	}
}

func TestBorrowMatchesReference(t *testing.T) {
	for _, tc := range borrowCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runKnown(t, tc.src, "tree", 0)
			if ref.err != "" || ref.out != tc.out {
				t.Fatalf("reference walker: output %q, error %q; want %q", ref.out, ref.err, tc.out)
			}
			for _, mode := range []string{"closure", "loaded", "profiled"} {
				got := runKnown(t, tc.src, mode, 0)
				if got.out != ref.out || got.exports != ref.exports || got.err != "" {
					t.Errorf("%s: output %q exports %q error %q; reference %q, %q",
						mode, got.out, got.exports, got.err, ref.out, ref.exports)
				}
				if mode == "profiled" {
					continue
				}
				c, ok := got.values[tc.callee].(*interp.CompiledClosure)
				if !ok {
					t.Fatalf("%s: export %d is %T, not a closure", mode, tc.callee, got.values[tc.callee])
				}
				if b := interp.Borrows(c.Fn); b != tc.borrows {
					t.Errorf("%s: callee borrows %v, want %v", mode, b, tc.borrows)
				}
			}
		})
	}
}

// TestBorrowJoinPointBody runs a callee that selects from its
// parameter only inside a join point's body, which runs in a frame of
// its own, so it must not borrow; and the same callee selecting in its
// own activation, which must. Both give 42 compiled, loaded and
// through the reference walker.
func TestBorrowJoinPointBody(t *testing.T) {
	for _, join := range []bool{true, false} {
		var g lambda.Gen
		f, p, j, u, a, b := g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh()
		v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
		sel := func(i int) lambda.Exp { return &lambda.Select{Rec: v(p), Idx: i} }
		// fn p => let j = fn u => #1 p in j () + #0 p
		// fn p => #1 p + #0 p
		var body lambda.Exp = &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{sel(1), sel(0)}}
		if join {
			body = &lambda.Let{LV: j, Bind: &lambda.Fn{Param: u, Body: sel(1)},
				Body: &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{
					&lambda.App{Fn: v(j), Arg: &lambda.Record{}}, sel(0)}}}
		}
		callee := &lambda.Fn{Param: p, Body: body}
		// fn _ => let f = callee in f (let a = 40 in let b = 2 in (a, b))
		root := &lambda.Fn{Param: g.Fresh(), Body: &lambda.Let{LV: f, Bind: callee,
			Body: &lambda.App{Fn: v(f), Arg: &lambda.Let{LV: a, Bind: &lambda.Int{Val: 40},
				Body: &lambda.Let{LV: b, Bind: &lambda.Int{Val: 2},
					Body: &lambda.Record{Fields: []lambda.Exp{v(a), v(b)}}}}}}}

		compiled, _, _, err := interp.CompileFn("term", root)
		if err != nil {
			t.Fatal(err)
		}
		progs := map[string]*interp.CompiledFn{"compiled": compiled, "loaded": loadTerm(t, root)}
		for mode, prog := range progs {
			fns := interp.Funcs(prog)
			i := slices.IndexFunc(fns, func(f *interp.CompiledFn) bool { return f.Pos == callee.Pos })
			if i < 0 {
				t.Fatalf("join %v, %s: no function at the callee's offset %d", join, mode, callee.Pos)
			}
			if interp.Borrows(fns[i]) == join {
				t.Errorf("join %v, %s: callee borrows %v", join, mode, interp.Borrows(fns[i]))
			}
		}
		m := interp.NewMachine()
		ref, err := m.Eval(root, nil)
		if err == nil {
			ref, err = m.Apply(ref, interp.Unit())
		}
		if err != nil || ref != interp.IntV(42) {
			t.Fatalf("join %v, reference: %v (%v), want 42", join, ref, err)
		}
		for mode, prog := range progs {
			got, err := m.Apply(&interp.CompiledClosure{Fn: prog}, interp.Unit())
			if err != nil || got != interp.IntV(42) {
				t.Errorf("join %v, %s: %v (%v), want 42", join, mode, got, err)
			}
		}
	}
}

// loadTerm compiles root and loads its pickled term with its code
// section as a bin load does.
func loadTerm(t *testing.T, root *lambda.Fn) *interp.CompiledFn {
	t.Helper()
	_, term, section, err := interp.CompileFn("term", root)
	if err != nil {
		t.Fatal(err)
	}
	sc := pickle.GetScratch()
	defer sc.Release()
	e, _, err := sc.Lambda(term, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := interp.LoadFn("term", e.(*lambda.Fn), term, section)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestBorrowPoolHandOff runs a borrowing function on chains of forks,
// one chain per goroutine, each fork handed the last one's pools as an
// exec worker hands them on: every call must see its own arguments
// (run it under -race).
func TestBorrowPoolHandOff(t *testing.T) {
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	src := "val rec loop = fn (n, acc) => if n = 0 then acc else loop (n - 1, acc + n)\nval g = fn (n, k, c) => loop (n, k) * 10 + c"
	u, err := s.Compile("borrow.sml", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	gv, _ := s.Dyn.Lookup(u.ExportPid(1))
	if c, ok := gv.(*interp.CompiledClosure); !ok || !interp.Borrows(c.Fn) {
		t.Fatalf("g = %v: want a borrowing closure", gv)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := s.Machine.Fork()
			for i := range 20 {
				next := s.Machine.Fork()
				prev.HandOff(next)
				n := int64(w*20 + i)
				arg, fs := interp.NewRecord(3)
				fs[0], fs[1], fs[2] = interp.IntV(n), interp.IntV(w), interp.IntV(i%10)
				got, err := next.Apply(gv, arg)
				if want := interp.IntV((n*(n+1)/2+int64(w))*10 + int64(i%10)); err != nil || got != want {
					errs <- fmt.Errorf("worker %d call %d: %v (%v), want %v", w, i, got, err, want)
					return
				}
				prev = next
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
