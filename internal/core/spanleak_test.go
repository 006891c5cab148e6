// The span-closure audit (observability invariant): every span a
// build opens must be closed by the time Build returns, on every
// path — success, compile failure at any scheduler width, and the
// cancellation of in-flight workers a mid-build failure triggers. A
// leaked span renders as an event with no duration in the Perfetto
// trace and, worse, silently truncates the phase timings the ledger
// trends; diffing Collector.SpanCounts catches the leak at the source.
package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// checkSpansClosed asserts the open/close ledger balances.
func checkSpansClosed(t *testing.T, col *obs.Collector, ctx string) {
	t.Helper()
	opened, closed := col.SpanCounts()
	if opened == 0 {
		t.Fatalf("%s: no spans recorded; instrumentation detached?", ctx)
	}
	if open := col.OpenSpans(); open != 0 {
		t.Errorf("%s: %d spans leaked (%d opened, %d closed)", ctx, open, opened, closed)
	}
}

func TestSpansClosedOnSuccess(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		if _, err := m.Build(workload.Generate(workload.Small()).Files); err != nil {
			t.Fatal(err)
		}
		checkSpansClosed(t, col, "success")
	}
}

// TestSpansClosedOnFailure is the regression test for the in-flight
// worker leak: when a unit fails mid-build, results already computed
// by workers but never committed used to leave their unit spans open.
func TestSpansClosedOnFailure(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		// Run repeatedly at each width: whether a worker is in flight at
		// the instant of failure is a race the scheduler loses only
		// sometimes.
		for round := 0; round < 10; round++ {
			col := obs.New()
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: io.Discard, Obs: col, Jobs: jobs}
			if _, err := m.Build(failureFiles()); err == nil {
				t.Fatal("build of failing group succeeded")
			}
			checkSpansClosed(t, col, "failure")
		}
	}
}

// TestFailedBuildTraceValid: the trace of a failing parallel build
// still serializes as well-formed trace_event JSON with every event
// carrying a non-negative duration — the artifact you debug the
// failure with must itself be sound.
func TestFailedBuildTraceValid(t *testing.T) {
	col := obs.New()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Obs: col, Jobs: 8}
	if _, err := m.Build(failureFiles()); err == nil {
		t.Fatal("build of failing group succeeded")
	}
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("failed build's trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("failed build produced an empty trace")
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("malformed event in failure trace: %+v", ev)
		}
	}
	var jbuf bytes.Buffer
	if err := col.WriteJSONL(&jbuf); err != nil {
		t.Fatalf("failed build's JSONL export: %v", err)
	}
}

// TestExecSpanAudit audits the execute sub-phase instrumentation at
// both scheduler widths (DESIGN.md §4j): every unit gets exactly one
// "execute" span carrying the full imports/apply/bind sub-phase set,
// every one of those spans is closed with a non-negative duration, and
// the spans sit on the exec pool's lanes (jobs+1..2·jobs) — never on a
// compile worker's lane, so the Perfetto view keeps compilation and
// execution on separate tracks.
func TestExecSpanAudit(t *testing.T) {
	p := workload.Generate(workload.Small())
	for _, jobs := range []int{1, 8} {
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		type span struct {
			Type   string  `json:"type"`
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Name   string  `json:"name"`
			Lane   int     `json:"lane"`
			DurUs  float64 `json:"dur_us"`
		}
		spans := map[int]span{}
		children := map[int][]span{}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var s span
			if err := dec.Decode(&s); err != nil {
				t.Fatal(err)
			}
			if s.Type != "span" {
				continue
			}
			spans[s.ID] = s
			children[s.Parent] = append(children[s.Parent], s)
		}
		execs := 0
		for _, s := range spans {
			if s.Name != "execute" {
				continue
			}
			execs++
			if s.DurUs < 0 {
				t.Errorf("jobs=%d: execute span %d has negative duration", jobs, s.ID)
			}
			if s.Lane < jobs+1 || s.Lane > 2*jobs {
				t.Errorf("jobs=%d: execute span %d on lane %d, want exec lane %d..%d",
					jobs, s.ID, s.Lane, jobs+1, 2*jobs)
			}
			sub := map[string]bool{}
			for _, ch := range children[s.ID] {
				sub[ch.Name] = true
				if ch.DurUs < 0 {
					t.Errorf("jobs=%d: %s sub-span of execute %d has negative duration",
						jobs, ch.Name, s.ID)
				}
				if ch.Lane != s.Lane {
					t.Errorf("jobs=%d: %s sub-span on lane %d, execute on %d",
						jobs, ch.Name, ch.Lane, s.Lane)
				}
			}
			for _, want := range []string{"imports", "apply", "bind"} {
				if !sub[want] {
					t.Errorf("jobs=%d: execute span %d missing %q sub-phase", jobs, s.ID, want)
				}
			}
		}
		if execs != len(p.Files) {
			t.Errorf("jobs=%d: %d execute spans, want one per unit (%d)",
				jobs, execs, len(p.Files))
		}
	}
}

// TestPhaseTimingsMatchSpans: a build's time.<phase>_ns delta is
// exactly the sum of that build's phase-span durations as -jsonl
// exports them — on cold, null, impl-edit and failing builds at -j1
// and -j4 over one collector, spans of speculative units drained after
// the failure included — and the report's timings_ns are those deltas.
func TestPhaseTimingsMatchSpans(t *testing.T) {
	p := workload.Generate(workload.Small())
	bad := append([]core.File(nil), p.Files...)
	bad[len(bad)/2].Source += "\nval _ = noSuchName"
	scenarios := []struct {
		name  string
		files []core.File
	}{
		{"cold", p.Files}, {"null", p.Files},
		{"impl-edit", p.Edit(0, workload.ImplEdit, 1)}, {"failing", bad},
	}
	// The report's timings_ns keys and the phase each one reads.
	table := map[string]string{
		"lock": "lock", "session": "session", "scan": "scan", "parse": "parse",
		"order": "order", "compile": "compile", "hash": "hash", "pickle": "pickle",
		"load": "load", "save": "save", "exec": "execute",
		"exec_imports": "imports", "exec_apply": "apply", "exec_bind": "bind",
	}
	for _, jobs := range []int{1, 4} {
		store, err := core.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: store,
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		var deltas []map[string]int64
		var reports []obs.Report
		for _, sc := range scenarios {
			if _, err := m.Build(sc.files); (err != nil) != (sc.name == "failing") {
				t.Fatalf("jobs=%d %s: build error %v", jobs, sc.name, err)
			}
			deltas = append(deltas, m.Counters)
			reports = append(reports, m.Report(sc.name))
		}
		sums := phaseSpanSums(t, col)
		if len(sums) != len(scenarios) {
			t.Fatalf("jobs=%d: %d build spans, want %d", jobs, len(sums), len(scenarios))
		}
		for i, sc := range scenarios {
			ctx := fmt.Sprintf("jobs=%d %s", jobs, sc.name)
			if sums[i]["load"] == 0 && sums[i]["compile"] == 0 {
				t.Errorf("%s: no load or compile spans", ctx)
			}
			for phase, ns := range sums[i] {
				if got := deltas[i][obs.PhaseCounter(phase)]; got != ns {
					t.Errorf("%s: %s = %d, phase spans sum to %d", ctx, obs.PhaseCounter(phase), got, ns)
				}
			}
			for name, v := range deltas[i] {
				phase, ok := strings.CutPrefix(name, "time.")
				if ok && name != "time.hash_ns" && sums[i][strings.TrimSuffix(phase, "_ns")] != v {
					t.Errorf("%s: %s = %d has no matching phase spans", ctx, name, v)
				}
			}
			if len(reports[i].TimingsNs) != len(table) {
				t.Errorf("%s: timings_ns %v, want the %d keys of the table",
					ctx, reports[i].TimingsNs, len(table))
			}
			for key, phase := range table {
				if got, want := reports[i].TimingsNs[key], deltas[i][obs.PhaseCounter(phase)]; got != want {
					t.Errorf("%s: timings_ns.%s = %d, want time.%s_ns delta %d", ctx, key, got, phase, want)
				}
			}
		}
	}
}

// phaseSpanSums reads a collector's spans back from its JSONL export
// and sums the phase-span durations (µs → ns, rounded) per build root,
// in build order.
func phaseSpanSums(t *testing.T, col *obs.Collector) []map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Type   string  `json:"type"`
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		Name   string  `json:"name"`
		Cat    string  `json:"cat"`
		DurUs  float64 `json:"dur_us"`
	}
	parent := map[int]int{}
	var spans []span
	var roots []int
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.Type != "span" {
			continue
		}
		parent[s.ID] = s.Parent
		spans = append(spans, s)
		if s.Parent == 0 {
			roots = append(roots, s.ID)
		}
	}
	build := map[int]int{}
	sums := make([]map[string]int64, len(roots))
	for i, id := range roots {
		build[id] = i
		sums[i] = map[string]int64{}
	}
	for _, s := range spans {
		if s.Cat != obs.CatPhase {
			continue
		}
		root := s.ID
		for parent[root] != 0 {
			root = parent[root]
		}
		sums[build[root]][s.Name] += int64(math.Round(s.DurUs * 1000))
	}
	return sums
}
