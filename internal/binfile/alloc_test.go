package binfile

import (
	"runtime"
	"testing"

	"repro/internal/pickle"
)

// allocUnitSource is a fixed unit for the load-path allocation ceiling:
// a datatype, pattern matching, recursion, arithmetic and a functor-free
// structure, so every slab-decoded node kind and saturated primitive
// calls (bare Prim nodes) occur.
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

// TestReadAllocCeiling pins the allocation count and the allocated
// bytes of a warm load of a fixed unit: binfile.Read decodes the term
// into a pooled scratch slab that the next load reuses, builds the
// root body with shared leaf closures (DESIGN.md §4f) and leaves every
// nested function to be decoded and built on its first call (DESIGN.md
// §4j), so a regression to per-node allocation, to kept terms or to
// eager function bodies shows here as a jump beyond the ceilings'
// headroom. Both ceilings sit about 15% above the values measured with
// Go 1.24 on x86-64, leaving room for runtime differences between Go
// releases, such as map internals: 183 allocations (191 with every
// primitive call eta-expanded, 220 with the term kept in per-unit
// slabs, 334 with eager function bodies, 825 with per-node allocation)
// and 10,190 bytes (25,612 with the term kept).
// The bytes are read from runtime.MemStats over 20 warm loads.
func TestReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s1 := newSession(t)
	u, err := s1.Run("alloc", allocUnitSource)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t)
	read := func() {
		if _, err := Read(data, s2.Index, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	read()
	got := testing.AllocsPerRun(20, read)
	const runs = 20
	// Start the window right after a collection, with the scratch pool
	// refilled: a collection inside it would empty the pool and charge
	// the loads for fresh slab chunks, however small the program's heap.
	runtime.GC()
	read()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("binfile.Read: %.0f allocs and %d bytes per load", got, bytes)
	const ceiling, bytesCeiling = 220, 11840
	if got > ceiling {
		t.Errorf("binfile.Read allocates %.0f times per load, ceiling %d", got, ceiling)
	}
	if bytes > bytesCeiling {
		t.Errorf("binfile.Read allocates %d bytes per load, ceiling %d", bytes, bytesCeiling)
	}
}

// TestReadCachedAllocs pins what the EnvCache costs and saves on the
// load of allocUnitSource. A read that misses an empty cache may
// allocate only the insert on top of an uncached read: the entry, the
// env segment's copy, the LRU node and the map slot; an index
// precomputed per entry shows here as a jump in the difference. A read
// that hits skips the env decode, and its ceiling, like
// TestReadAllocCeiling's, sits about 15% above the count measured with
// Go 1.24 on x86-64 (uncached 190, miss 195, hit 97).
func TestReadCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s1 := newSession(t)
	u, err := s1.Run("alloc", allocUnitSource)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t)
	read := func(cache *pickle.EnvCache) {
		if _, err := Read(data, s2.Index, cache, nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	read(nil)
	uncached := testing.AllocsPerRun(runs, func() { read(nil) })

	// AllocsPerRun calls its function once more than runs, and every
	// call must miss, so each gets an empty cache made outside the
	// measurement.
	empty := make([]*pickle.EnvCache, runs+1)
	for i := range empty {
		empty[i] = pickle.NewEnvCache(0)
	}
	next := 0
	miss := testing.AllocsPerRun(runs, func() {
		read(empty[next])
		next++
	})

	warm := pickle.NewEnvCache(0)
	read(warm)
	hit := testing.AllocsPerRun(runs, func() { read(warm) })

	t.Logf("binfile.Read: %.0f allocs uncached, %.0f on a miss, %.0f on a hit", uncached, miss, hit)
	const insertAllocs, hitCeiling = 8, 112
	if miss-uncached > insertAllocs {
		t.Errorf("a miss allocates %.0f times more than an uncached read, want at most %d", miss-uncached, insertAllocs)
	}
	if hit > hitCeiling {
		t.Errorf("a hit allocates %.0f times per load, ceiling %d", hit, hitCeiling)
	}
}
