package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// parse writes out to a file and parses it as benchmark output.
func parse(t *testing.T, out string) map[string]result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestParseBenchKeepsBestOfEach pins what parseBench keeps of the
// repetitions: the median ns/op and the minimum (best) allocs/op.
func TestParseBenchKeepsBestOfEach(t *testing.T) {
	got := parse(t, `goos: linux
BenchmarkPipelineRehydrate-2   	   100	     72097 ns/op	   45000 B/op	     934 allocs/op
BenchmarkPipelineRehydrate-2   	   100	     70000 ns/op	   45000 B/op	     936 allocs/op
BenchmarkPipelineRehydrate-2   	   100	     90000 ns/op	   45000 B/op	     935 allocs/op
BenchmarkApplyHot/closure-2    	   500	   2318221 ns/op
PASS
`)
	r := got["BenchmarkPipelineRehydrate"]
	if r.ns != 72097 || !r.hasAllocs || r.allocs != 934 {
		t.Errorf("rehydrate = %+v, want median ns 72097 and min allocs 934", r)
	}
	if h := got["BenchmarkApplyHot/closure"]; h.ns != 2318221 || h.hasAllocs {
		t.Errorf("apply = %+v, want ns only (no -benchmem columns)", h)
	}
}

func TestPctRise(t *testing.T) {
	for _, c := range []struct{ base, head, want float64 }{
		{100, 102, 2},
		{100, 90, -10},
		{0, 0, 0},
	} {
		if got := pctRise(c.base, c.head); got != c.want {
			t.Errorf("pctRise(%v, %v) = %v, want %v", c.base, c.head, got, c.want)
		}
	}
	if pctRise(0, 1) <= allocThreshold {
		t.Error("a first allocation in an allocation-free benchmark must exceed the gate")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// gateRuns compares head against base, both `go test -bench` output,
// at a 10% threshold, and returns the number of failed figures.
func gateRuns(t *testing.T, base, head string) int {
	t.Helper()
	gated, failed := compare(io.Discard, parse(t, base), parse(t, head), regexp.MustCompile(`ApplyHot`), 10)
	if gated != 1 {
		t.Fatalf("%d benchmarks gated, want 1", gated)
	}
	return failed
}

// A base with one unusually fast repetition and the same median as
// head passes: a gate on minimums failed it at +15%.
func TestGateIgnoresOneFastBaseRun(t *testing.T) {
	base := `BenchmarkApplyHot/closure-2 500 2000000 ns/op
BenchmarkApplyHot/closure-2 500 2300000 ns/op
BenchmarkApplyHot/closure-2 500 2310000 ns/op
BenchmarkApplyHot/closure-2 500 2320000 ns/op
BenchmarkApplyHot/closure-2 500 2330000 ns/op
`
	head := `BenchmarkApplyHot/closure-2 500 2290000 ns/op
BenchmarkApplyHot/closure-2 500 2300000 ns/op
BenchmarkApplyHot/closure-2 500 2310000 ns/op
BenchmarkApplyHot/closure-2 500 2320000 ns/op
BenchmarkApplyHot/closure-2 500 2340000 ns/op
`
	if failed := gateRuns(t, base, head); failed != 0 {
		t.Errorf("equal medians: %d figures failed, want 0", failed)
	}
}

// A real rise of the median, +15%, still fails.
func TestGateFailsMedianRise(t *testing.T) {
	base := `BenchmarkApplyHot/closure-2 500 2000000 ns/op
BenchmarkApplyHot/closure-2 500 2010000 ns/op
BenchmarkApplyHot/closure-2 500 2020000 ns/op
`
	head := `BenchmarkApplyHot/closure-2 500 2290000 ns/op
BenchmarkApplyHot/closure-2 500 2311500 ns/op
BenchmarkApplyHot/closure-2 500 2330000 ns/op
`
	if failed := gateRuns(t, base, head); failed != 1 {
		t.Errorf("median +15%%: %d figures failed, want 1", failed)
	}
}
