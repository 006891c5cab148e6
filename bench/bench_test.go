package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload on a small project with two ops, with
// and without the traced run, and checks that every check passes and
// every metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		cfg := config{workloads: workloadNames, seed: 7, ops: 2, trace: traced, sets: 1,
			jobs: runtime.GOMAXPROCS(0), size: smokeSize, outDir: t.TempDir()}
		res, _, err := bench(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: correct %v, %d of %d ops failed", traced, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want)*len(workloadNames) {
			t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json lists %d per workload",
				traced, len(res.Metrics), len(want))
		}
		for _, w := range workloadNames {
			for _, m := range want {
				got, ok := res.Metrics[w+"/"+m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("trace=%v: %s/%s = %+v, want a value in %s", traced, w, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestWidthGuard(t *testing.T) {
	args := []string{"-j", fmt.Sprint(runtime.GOMAXPROCS(0) + 1)}
	if code := run(args, io.Discard, io.Discard); code != 2 {
		t.Errorf("-j above GOMAXPROCS exited %d, want 2", code)
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want float64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 25}}, 15},
		{[]interval{{20, 25}, {0, 10}, {5, 12}}, 17},
		{[]interval{{0, 10}, {2, 3}}, 10},
		{[]interval{{0, 10}, {10, 12}}, 12},
	} {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}

// TestAnalyzeBuilds checks self time and unattributed time on a hand-built
// span list: two builds, overlapping phases on two lanes, a phase with
// overlapping children, and a child that outlives its parent.
func TestAnalyzeBuilds(t *testing.T) {
	spans := []span{
		{Type: "span", ID: 1, Name: "build", Cat: "build", TsUs: 0, DurUs: 100},
		{Type: "span", ID: 2, Parent: 1, Name: "scan", Cat: "phase", TsUs: 10, DurUs: 20},
		{Type: "span", ID: 3, Parent: 2, Name: "parse", Cat: "phase", TsUs: 12, DurUs: 5},
		{Type: "span", ID: 4, Parent: 2, Name: "parse", Cat: "phase", TsUs: 15, DurUs: 5},
		{Type: "span", ID: 5, Parent: 1, Name: "u1", Cat: "unit", TsUs: 40, DurUs: 50},
		{Type: "span", ID: 6, Parent: 5, Name: "compile", Cat: "phase", TsUs: 40, DurUs: 20},
		{Type: "span", ID: 7, Parent: 1, Name: "u2", Cat: "unit", TsUs: 45, DurUs: 40},
		{Type: "span", ID: 8, Parent: 7, Name: "compile", Cat: "phase", TsUs: 45, DurUs: 20},
		{Type: "span", ID: 9, Parent: 5, Name: "execute", Cat: "phase", TsUs: 70, DurUs: 10},
		{Type: "span", ID: 10, Parent: 9, Name: "apply", Cat: "phase", TsUs: 75, DurUs: 10},
		{Type: "span", ID: 11, Name: "build", Cat: "build", TsUs: 200, DurUs: 10},
		{Type: "span", ID: 12, Parent: 11, Name: "lock", Cat: "phase", TsUs: 200, DurUs: 4},
	}
	builds := analyzeBuilds(spans)
	if len(builds) != 2 {
		t.Fatalf("%d builds, want 2", len(builds))
	}
	b := builds[0]
	want := map[string]float64{"scan": 12, "parse": 10, "compile": 40, "execute": 5, "apply": 10}
	if fmt.Sprint(b.self) != fmt.Sprint(want) {
		t.Errorf("self times %v, want %v", b.self, want)
	}
	// Phases cover [10,30], [40,65] and [70,85]: 60 of the build's 100 µs.
	if b.wall != 100 || b.unattributed != 40 {
		t.Errorf("wall %v, unattributed %v; want 100 and 40", b.wall, b.unattributed)
	}
	if b.busy() != 77 {
		t.Errorf("busy %v, want 77", b.busy())
	}
	if builds[1].unattributed != 6 || builds[1].self["lock"] != 4 {
		t.Errorf("second build: %+v", builds[1])
	}
}
