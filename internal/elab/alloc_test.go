//go:build !race

// Allocation counts differ under the race detector, so this file is
// left out of -race builds.

package elab_test

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestElabAllocs pins what parsing and elaborating one unit of the
// cold-build shape allocates: the last unit of a small layered project
// with functors, over a warm session holding the units before it.
// Parsing resolves infix phrases in a stack buffer, makes an infix
// application one block and shares one parts slice per name.
// Elaboration makes namespace maps on first define, builds let chains
// without closures, makes a saturated primitive call, a primitive's
// eta-expansion and a match rule's chain link one block each, and
// shares the basis types. The ceilings sit about 5% above the counts
// measured with Go 1.24 on x86-64 (parse 1,617, elaborate 8,162);
// elaboration took 10,394 while every primitive call was
// eta-expanded, and before the other changes the same unit took 5,647
// and 19,107. A change to the workload generator moves both counts.
func TestElabAllocs(t *testing.T) {
	files := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 10, LinesPerUnit: 120, FunsPerUnit: 6,
		FanIn: 3, LayerWidth: 8, Functors: true, Seed: 1994,
	}).Files
	s := newSession(t)
	for _, f := range files[:len(files)-1] {
		mustRun(t, s, f.Source)
	}
	src := files[len(files)-1].Source

	decs, errs := parser.Parse(src)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	parse := testing.AllocsPerRun(20, func() {
		if _, errs := parser.Parse(src); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	})
	elaborate := testing.AllocsPerRun(20, func() {
		if _, errs := elab.ElabUnit(decs, s.Context); len(errs) > 0 {
			t.Fatal(errs[0])
		}
	})
	t.Logf("%s: parse %.0f allocs, elaborate %.0f", files[len(files)-1].Name, parse, elaborate)
	const parseCeiling, elabCeiling = 1700, 8600
	if parse > parseCeiling {
		t.Errorf("parsing allocates %.0f times, ceiling %d", parse, parseCeiling)
	}
	if elaborate > elabCeiling {
		t.Errorf("elaboration allocates %.0f times, ceiling %d", elaborate, elabCeiling)
	}
}
