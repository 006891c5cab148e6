package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndSince(t *testing.T) {
	c := New()
	c.Add("cache.hits", 2)
	c.Add("cache.hits", 3)
	c.Add("store.bytes_read", 100)
	before := c.Counters()
	c.Add("cache.hits", 1)
	c.Add("cache.misses", 4)

	got := c.Counters()
	if got["cache.hits"] != 6 || got["store.bytes_read"] != 100 {
		t.Fatalf("counters = %v", got)
	}
	d := c.Since(before)
	if d["cache.hits"] != 1 || d["cache.misses"] != 4 {
		t.Fatalf("delta = %v", d)
	}
	if _, ok := d["store.bytes_read"]; ok {
		t.Fatalf("zero delta not omitted: %v", d)
	}
}

func TestNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Add("x", 1) // must not panic
	s := c.StartSpan(CatBuild, "build")
	s.Arg("k", "v").Child(CatPhase, "p").End()
	s.End()
	if c.Counters() != nil || c.Explains() != nil {
		t.Fatal("nil collector returned data")
	}
	c.Explain(Explain{Unit: "u"})
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration %v", d)
	}
	Count(nil, "x", 1)
}

func TestSpanHierarchyAndTrace(t *testing.T) {
	c := New()
	build := c.StartSpan(CatBuild, "build").Arg("policy", "cutoff")
	unit := build.Child(CatUnit, "a.sml")
	phase := unit.Child(CatPhase, "compile").Arg("unit", "a.sml")
	time.Sleep(time.Millisecond)
	phase.End()
	unit.End()
	build.End()

	data, err := c.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(tf.TraceEvents) != 3 {
		t.Fatalf("got %d events", len(tf.TraceEvents))
	}
	byName := map[string]TraceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative time: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
		byName[ev.Name] = ev
	}
	// Nesting: each child interval lies within its parent's.
	contains := func(p, ch TraceEvent) bool {
		const eps = 1e-3
		return p.Ts <= ch.Ts+eps && ch.Ts+ch.Dur <= p.Ts+p.Dur+eps
	}
	if !contains(byName["build"], byName["a.sml"]) ||
		!contains(byName["a.sml"], byName["compile"]) {
		t.Fatalf("span intervals do not nest: %+v", byName)
	}
	if byName["compile"].Dur <= 0 {
		t.Fatal("compile phase has zero duration")
	}
	if byName["build"].Args["policy"] != "cutoff" {
		t.Fatalf("args lost: %+v", byName["build"].Args)
	}
}

func TestOpenSpanExports(t *testing.T) {
	c := New()
	c.StartSpan(CatBuild, "open") // never ended
	time.Sleep(time.Millisecond)
	data, err := c.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 1 || tf.TraceEvents[0].Dur <= 0 {
		t.Fatalf("open span exported badly: %+v", tf.TraceEvents)
	}
}

func TestWriteJSONL(t *testing.T) {
	c := New()
	b := c.StartSpan(CatBuild, "build")
	b.Child(CatUnit, "u").End()
	b.End()
	gen := c.BeginBuild()
	c.Explain(Explain{Build: gen, Unit: "u", Action: ActionCompiled, Reason: ReasonCold})
	c.Add("cache.misses", 1)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(&buf)
	parents := map[int]int{}
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		types = append(types, line["type"].(string))
		if line["type"] == "span" {
			parents[int(line["id"].(float64))] = int(line["parent"].(float64))
		}
	}
	if strings.Join(types, ",") != "span,span,explain,counters" {
		t.Fatalf("line types %v", types)
	}
	if parents[2] != 1 || parents[1] != 0 {
		t.Fatalf("span parent ids %v", parents)
	}
}

func TestBuildExplains(t *testing.T) {
	c := New()
	b1 := c.BeginBuild()
	c.Explain(Explain{Build: b1, Unit: "a"})
	b2 := c.BeginBuild()
	c.Explain(Explain{Build: b2, Unit: "a"})
	c.Explain(Explain{Build: b2, Unit: "b"})
	if n := len(c.BuildExplains(b1)); n != 1 {
		t.Fatalf("build 1 explains = %d", n)
	}
	if n := len(c.BuildExplains(b2)); n != 2 {
		t.Fatalf("build 2 explains = %d", n)
	}
	if n := len(c.Explains()); n != 3 {
		t.Fatalf("total explains = %d", n)
	}
}

// TestPrune: Prune drops closed spans and explain records but keeps
// open spans, counters and the build count, and never reuses a span id.
func TestPrune(t *testing.T) {
	c := New()
	c.BeginBuild()
	c.Add("x", 1)
	open := c.StartSpan(CatBuild, "open")
	closed := open.Child(CatPhase, "closed")
	closed.End()
	c.Explain(Explain{Build: 1, Unit: "a"})
	c.Prune()
	if opened, ended := c.SpanCounts(); opened != 1 || ended != 0 {
		t.Errorf("after Prune: %d spans, %d closed; want the one open span", opened, ended)
	}
	if len(c.Explains()) != 0 || c.Builds() != 1 || c.Counters()["x"] != 1 {
		t.Errorf("after Prune: %d explains, %d builds, counter %d",
			len(c.Explains()), c.Builds(), c.Counters()["x"])
	}
	if next := c.StartSpan(CatBuild, "next"); next.id <= closed.id {
		t.Errorf("span id %d reused after Prune (last was %d)", next.id, closed.id)
	}
}

func TestExplainJSONL(t *testing.T) {
	var buf bytes.Buffer
	err := WriteExplainJSONL(&buf, []Explain{
		{Build: 1, Unit: "a.sml", Action: ActionCompiled, Reason: ReasonSourceChanged, Cutoff: true},
		{Build: 1, Unit: "b.sml", Action: ActionLoaded, Reason: ReasonCached, SavedByCutoff: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var e Explain
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Unit != "a.sml" || !e.Cutoff || e.Reason != ReasonSourceChanged {
		t.Fatalf("round trip %+v", e)
	}
}

// TestConcurrentUse exercises the collector under -race: counters,
// spans, and explains from many goroutines.
func TestConcurrentUse(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("n", 1)
				s := c.StartSpan(CatPhase, "p")
				s.Arg("j", j)
				s.End()
				c.Explain(Explain{Unit: "u"})
			}
		}()
	}
	wg.Wait()
	if c.Counters()["n"] != 800 {
		t.Fatalf("n = %d", c.Counters()["n"])
	}
	if len(c.Explains()) != 800 {
		t.Fatalf("explains = %d", len(c.Explains()))
	}
	if _, err := c.TraceJSON(); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseSpansFeedCounters: ending a phase span adds its own
// inclusive duration to time.<name>_ns — nested phases each count
// theirs — while build and unit spans, and a second End, add nothing.
func TestPhaseSpansFeedCounters(t *testing.T) {
	c := New()
	build := c.StartSpan(CatBuild, "build")
	scan := build.Child(CatPhase, "scan")
	parse := scan.Child(CatPhase, "parse")
	time.Sleep(time.Millisecond)
	parse.End()
	scan.End()
	unit := build.Child(CatUnit, "a.sml")
	exec := unit.Child(CatPhase, "execute")
	var subs []*Span
	for _, name := range []string{"imports", "apply", "bind"} {
		s := exec.Child(CatPhase, name)
		time.Sleep(100 * time.Microsecond)
		s.End()
		subs = append(subs, s)
	}
	exec.End()
	unit.End()
	build.End()
	before := c.Counters()
	for _, s := range append(subs, build, unit, scan, parse, exec) {
		s.End() // second End: a no-op, counters included
	}
	if d := c.Since(before); len(d) != 0 {
		t.Fatalf("second End changed counters: %v", d)
	}

	got := c.Counters()
	want := map[string]int64{}
	for _, s := range append(subs, scan, parse, exec) {
		want[PhaseCounter(s.name)] = int64(s.Duration())
	}
	if len(got) != len(want) {
		t.Fatalf("counters %v, want exactly the phase counters %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns || ns <= 0 {
			t.Errorf("%s = %d, want the span's duration %d", name, got[name], ns)
		}
	}
	if got["time.scan_ns"] < got["time.parse_ns"] {
		t.Errorf("scan %d does not include its parse %d", got["time.scan_ns"], got["time.parse_ns"])
	}
	var sub int64
	for _, s := range subs {
		sub += int64(s.Duration())
	}
	if got["time.execute_ns"] < sub {
		t.Errorf("execute %d does not include its sub-phases %d", got["time.execute_ns"], sub)
	}

	var nilc *Collector
	nilc.StartSpan(CatPhase, "parse").End() // nil collector: no panic, no counters
	if nilc.Counters() != nil {
		t.Fatal("nil collector has counters")
	}
}

// TestPhaseSpanEndAllocs: feeding the phase counter costs no
// allocation — Child+End on a warmed collector allocates only the
// Span itself, as before phase spans fed counters.
func TestPhaseSpanEndAllocs(t *testing.T) {
	c := New()
	root := c.StartSpan(CatBuild, "build")
	root.Child(CatPhase, "parse").End() // interns the key
	if a := testing.AllocsPerRun(1000, func() { root.Child(CatPhase, "parse").End() }); a > 1 {
		t.Fatalf("Child+End of a phase span: %v allocs, want at most 1", a)
	}
}

func BenchmarkSpanOverhead(b *testing.B) {
	c := New()
	root := c.StartSpan(CatBuild, "build")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := root.Child(CatPhase, "p")
		s.End()
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add("cache.hits", 1)
	}
}
