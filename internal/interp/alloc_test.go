package interp_test

import (
	"io"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// allocProgram folds over a list built by List.tabulate: the prelude's
// curried foldl, its match-compiled join points and tabulate's
// non-tail recursion, over allocElems elements. unaryProgram folds the
// same list through two unary primitives per element, whose results
// (a char, a small int) need no allocation. arithProgram folds it
// through exec-heavy's chain of three arithmetic primitives, whose
// intermediates lie outside the small-int cache.
const (
	allocElems   = 2000
	allocProgram = `val l = List.tabulate (2000, fn i => i)
val s = foldl (fn (x, acc) => x + acc) 0 l`
	unaryProgram = `val l = List.tabulate (2000, fn i => i)
val s = foldl (fn (x, acc) => ord (chr (x mod 256)) + acc) 0 l`
	arithProgram = `val l = List.tabulate (2000, fn i => i)
val s = foldl (fn (x, acc) => (acc * 31 + x) mod 1000003) 7 l`
)

// TestExecAllocCeiling pins the allocations of executing allocProgram
// per list element: 1.96 measured with Go 1.24; 2.96 when a list cell
// and its pair were two allocations, 3.96 when foldl built
// the argument tuple of f (x, acc) for each call, 7.96 when a record
// took two allocations and foldl's clauses matched on a tuple of its
// parameters, 17.96 when every curried level and clause thunk also
// built its closure (DESIGN.md §4j, "Constructor cells", "Known calls",
// "Borrowed argument tuples" and "Records"). What remains is values —
// the list cell and the boxed sum — not calls. unaryProgram must
// allocate no more: a primitive call passes its operands directly
// (5.96, two more per element, when each call of chr and ord built
// its argument slice). Nor must arithProgram: only the root of an
// arithmetic chain boxes its result (6.01 when each intermediate was
// boxed too).
func TestExecAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	perElem := func(src string) float64 {
		u, err := s.Compile("alloc.sml", src)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := compiler.Execute(s.Machine, u, s.Dyn.Copy(), nil, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, run) / allocElems
	}
	plain, unary, arith := perElem(allocProgram), perElem(unaryProgram), perElem(arithProgram)
	t.Logf("%.2f allocations per element, %.2f with two unary primitive calls, %.2f with an arithmetic chain", plain, unary, arith)
	const ceiling = 2
	if plain > ceiling {
		t.Errorf("%.2f allocations per element, ceiling %d", plain, ceiling)
	}
	if unary > plain+0.5 {
		t.Errorf("unary primitive calls: %.2f allocations per element, want no more than the plain fold's %.2f", unary, plain)
	}
	if arith > plain+0.5 {
		t.Errorf("arithmetic chain: %.2f allocations per element, want no more than the plain fold's %.2f", arith, plain)
	}
}

// TestConCellAllocs pins that building a constructor applied to a 2- or
// 3-field tuple is one allocation: SOME (a, b), N (l, v, r), x :: xs,
// and a list literal's cells, one per element. The cells read back as
// ordinary constructed values.
func TestConCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	src := `datatype t = L | N of t * int * t
val leaf = L
val some = fn (a : int, b : int) => SOME (a, b)
val node = fn (l, v, r) => N (l, v, r)
val cons = fn (x : int, xs) => x :: xs
val lit = fn (x : int, y : int) => [x, y]`
	u, err := s.Compile("cells.sml", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	export := func(i int) interp.Value {
		v, ok := s.Dyn.Lookup(u.ExportPid(i))
		if !ok {
			t.Fatalf("no export %d", i)
		}
		return v
	}
	tuple := func(vs ...interp.Value) interp.Value {
		r, fs := interp.NewRecord(len(vs))
		copy(fs, vs)
		return r
	}
	leaf := export(0)
	for _, tc := range []struct {
		name   string
		fn     interp.Value
		arg    interp.Value
		allocs float64
		want   string
	}{
		{"SOME (a, b)", export(1), tuple(interp.IntV(1), interp.IntV(2)), 1, "SOME (1, 2)"},
		{"N (l, v, r)", export(2), tuple(leaf, interp.IntV(5), leaf), 1, "N (L, 5, L)"},
		{"x :: xs", export(3), tuple(interp.IntV(1), interp.List(nil)), 1, "[1]"},
		{"[x, y]", export(4), tuple(interp.IntV(1), interp.IntV(2)), 2, "[1, 2]"},
	} {
		var got interp.Value
		n := testing.AllocsPerRun(100, func() {
			if got, err = s.Machine.Apply(tc.fn, tc.arg); err != nil {
				t.Fatal(err)
			}
		})
		if n != tc.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, n, tc.allocs)
		}
		if str := interp.String(got); str != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, str, tc.want)
		}
	}
}

// TestFoldReusesPool pins what proper tail calls save a fresh machine:
// on a Machine.Fork, whose pools start empty, folding the prelude's
// curried foldl over a 2,000-element tabulated list adds only a few
// allocations to tabulating it. The fold's steps are tail calls, so
// the frames of each step go back to the pool before the next step
// takes its own, and the fold runs on the frames tabulate's non-tail
// recursion left there. When every call was a Go call, the fold held
// four frames per element until it returned and added 6,002 frames
// and 2,000 slot arrays. The sum stays in the small-int cache, so
// the fold boxes no value. TestExecAllocCeiling runs on a warm pool
// and cannot see this.
func TestFoldReusesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	onFork := func(src string) float64 {
		u, err := s.Compile("pool.sml", src)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := compiler.Execute(s.Machine.Fork(), u, s.Dyn.Copy(), nil, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	tab := onFork(`val l = List.tabulate (2000, fn i => i)`)
	fold := onFork(`val l = List.tabulate (2000, fn i => i)
val s = foldl (fn (_, n) => n + 1) 0 l`)
	t.Logf("tabulate %.0f allocations, with the fold %.0f", tab, fold)
	const ceiling = 16
	if fold-tab > ceiling {
		t.Errorf("the fold adds %.0f allocations to tabulate's %.0f on a fresh fork, ceiling %d", fold-tab, tab, ceiling)
	}
}
