package binfile

import "testing"

// allocUnitSource is a fixed unit for the load-path allocation ceiling:
// a datatype, pattern matching, recursion, arithmetic and a functor-free
// structure, so every slab-decoded node kind and the eta-prim peel occur.
const allocUnitSource = `
structure Alloc = struct
  datatype shape = Circle of int | Rect of int * int | Dot
  fun area (Circle r) = 3 * r * r
    | area (Rect (w, h)) = w * h
    | area Dot = 0
  fun sum [] = 0
    | sum (x :: xs) = x + sum xs
  fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
  fun scale k xs = map (fn x => k * x + 1) xs
  val total = sum (scale 2 [area (Circle 2), area (Rect (3, 4)), area Dot, fib 10])
end
`

// TestReadAllocCeiling pins the allocation count of a warm load of a
// fixed unit: binfile.Read decodes the term from per-unit slabs,
// builds the root body with shared leaf closures (DESIGN.md §4f) and
// leaves every nested function to be built on its first call
// (DESIGN.md §4j), so a regression to per-node allocation or to eager
// function bodies shows here as a jump beyond the ceiling's headroom.
// Allocation counts are deterministic; the ceiling sits about 15%
// above the 220 measured with Go 1.24 (eager function bodies measured
// 334, per-node allocation 825), leaving room for runtime differences
// between Go releases, such as map internals.
func TestReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s1 := newSession(t)
	u, err := s1.Run("alloc", allocUnitSource)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t)
	if _, err := Read(data, s2.Index); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Read(data, s2.Index); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("binfile.Read: %.0f allocs per load", got)
	const ceiling = 253
	if got > ceiling {
		t.Errorf("binfile.Read allocates %.0f times per load, ceiling %d", got, ceiling)
	}
}
