package interp_test

import (
	"io"
	"testing"

	"repro/internal/compiler"
)

// allocProgram folds over a list built by List.tabulate: the prelude's
// curried foldl, its match-compiled join points and tabulate's
// non-tail recursion, over allocElems elements.
const (
	allocElems   = 2000
	allocProgram = `val l = List.tabulate (2000, fn i => i)
val s = foldl (fn (x, acc) => x + acc) 0 l`
)

// TestExecAllocCeiling pins the allocations of executing allocProgram
// per list element: 3.96 measured with Go 1.24; 7.96 when a record
// took two allocations and foldl's clauses matched on a tuple of its
// parameters, 17.96 when every curried level and clause thunk also
// built its closure (DESIGN.md §4j, "Known calls" and "Records").
// What remains is values — the list cell and its pair, the argument
// tuple of f (x, acc), the boxed sum — not calls.
func TestExecAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("alloc.sml", allocProgram)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := compiler.Execute(s.Machine, u, s.Dyn.Copy(), nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	perElem := testing.AllocsPerRun(10, run) / allocElems
	t.Logf("%.2f allocations per element", perElem)
	const ceiling = 5
	if perElem > ceiling {
		t.Errorf("%.2f allocations per element, ceiling %d", perElem, ceiling)
	}
}
