package watch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/workload"
)

// session bundles one live watch session for tests.
type session struct {
	t       *testing.T
	projDir string
	group   string
	store   *core.DirStore
	col     *obs.Collector
	ledger  *history.Ledger
	hub     *Hub
	w       *Watcher
	events  <-chan Event
	cancel  context.CancelFunc
	done    chan error
	release func()
}

// startSession materializes a workload project, acquires the store
// lock for the session (as `irm watch` does), and starts a watcher
// with fast polling. MaxBuilds bounds the session when n > 0.
func startSession(t *testing.T, cfg workload.Config, jobs, n int) *session {
	t.Helper()
	base := t.TempDir()
	projDir := filepath.Join(base, "proj")
	group, err := workload.Generate(cfg).Materialize(projDir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewDirStore(filepath.Join(base, "store"))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	store.Obs = col
	release, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := history.Open(filepath.Join(base, "hist"), nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.Unlocked(store),
		Stdout: os.Stdout, Obs: col, Jobs: jobs}
	w, err := New(Options{
		Manager: m, GroupPath: group, Col: col, Ledger: ledger, Hub: hub,
		Poll: 10 * time.Millisecond, Debounce: 5 * time.Millisecond,
		MaxBuilds: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, cancelSub := hub.Subscribe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx); close(done) }()
	s := &session{t: t, projDir: projDir, group: group, store: store, col: col,
		ledger: ledger, hub: hub, w: w, events: events, cancel: cancel,
		done: done, release: release}
	t.Cleanup(func() {
		cancel()
		cancelSub()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
		release()
	})
	return s
}

// wait blocks for the event with the given sequence number.
func (s *session) wait(seq int) Event {
	s.t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				s.t.Fatalf("event channel closed waiting for seq %d", seq)
			}
			if ev.Seq == seq {
				return ev
			}
			if ev.Seq > seq {
				s.t.Fatalf("missed event %d (got %d)", seq, ev.Seq)
			}
		case <-deadline:
			s.t.Fatalf("timeout waiting for watch event seq %d", seq)
		}
	}
}

// binFiles reads every top-level .bin file of a store directory.
func binFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// assertBinsMatchColdBuild cold-builds the current on-disk tree into a
// fresh store at the given parallelism and compares every bin file
// byte for byte against the watch session's store.
func (s *session) assertBinsMatchColdBuild(iter, jobs int) {
	s.t.Helper()
	g, err := core.LoadGroup(s.group)
	if err != nil {
		s.t.Fatal(err)
	}
	coldDir := filepath.Join(s.t.TempDir(), fmt.Sprintf("cold-%d-j%d", iter, jobs))
	cold, err := core.NewDirStore(coldDir)
	if err != nil {
		s.t.Fatal(err)
	}
	m := &core.Manager{Policy: core.PolicyCutoff, Store: cold, Stdout: os.Stdout, Jobs: jobs}
	if _, err := m.Build(g.Files); err != nil {
		s.t.Fatalf("iteration %d: cold build failed: %v", iter, err)
	}
	want := binFiles(s.t, coldDir)
	got := binFiles(s.t, s.store.Dir)
	if len(want) == 0 {
		s.t.Fatalf("iteration %d: cold build produced no bins", iter)
	}
	for name, wantData := range want {
		gotData, ok := got[name]
		if !ok {
			s.t.Errorf("iteration %d (-j%d): %s missing from watch store", iter, jobs, name)
			continue
		}
		if !bytes.Equal(gotData, wantData) {
			s.t.Errorf("iteration %d (-j%d): %s differs between watch store and cold build",
				iter, jobs, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			s.t.Errorf("iteration %d (-j%d): watch store has extra bin %s", iter, jobs, name)
		}
	}
}

// TestScriptedSessionDeterminism is the acceptance test: a scripted
// edit session, every iteration's bin files byte-identical to a cold
// `irm build` of the same tree at -j1 and -j8, every iteration in the
// ledger, every rebuild in the latency histogram.
func TestScriptedSessionDeterminism(t *testing.T) {
	const edits = 12
	cfg := workload.Small()
	s := startSession(t, cfg, 8, edits)

	ev0 := s.wait(0)
	if ev0.Outcome != OutcomeOK || ev0.LatencyNs != 0 {
		t.Fatalf("initial build event = %+v", ev0)
	}
	s.assertBinsMatchColdBuild(0, 1)

	driver := workload.NewEditDriver(s.projDir, cfg.Units, 42)
	for k := 1; k <= edits; k++ {
		if _, err := driver.Next(); err != nil {
			t.Fatal(err)
		}
		ev := s.wait(k)
		if ev.Outcome != OutcomeOK {
			t.Fatalf("iteration %d failed: %s", k, ev.Error)
		}
		if ev.LatencyNs <= 0 {
			t.Errorf("iteration %d: non-positive latency %d", k, ev.LatencyNs)
		}
		if len(ev.Changed) == 0 {
			t.Errorf("iteration %d: no changed files in event", k)
		}
		s.assertBinsMatchColdBuild(k, 1)
		s.assertBinsMatchColdBuild(k, 8)
	}

	// MaxBuilds reached: Run must return on its own.
	select {
	case err := <-s.done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher did not stop at MaxBuilds")
	}

	rep := s.w.Report()
	if rep.Schema != ReportSchema {
		t.Errorf("report schema %q", rep.Schema)
	}
	if rep.Iterations != edits+1 || rep.Rebuilds != edits {
		t.Errorf("report iterations=%d rebuilds=%d, want %d/%d",
			rep.Iterations, rep.Rebuilds, edits+1, edits)
	}
	if rep.Latency.Count != edits || rep.Latency.P50Ns <= 0 ||
		rep.Latency.P99Ns < rep.Latency.P50Ns {
		t.Errorf("latency summary implausible: %+v", rep.Latency)
	}

	recs, skipped, err := s.ledger.ReadAll()
	if err != nil || skipped != 0 {
		t.Fatalf("ledger read: %v (skipped %d)", err, skipped)
	}
	if len(recs) != edits+1 {
		t.Errorf("ledger has %d records, want %d", len(recs), edits+1)
	}
	for i, rec := range recs {
		if rec.Outcome != history.OutcomeOK {
			t.Errorf("ledger record %d outcome %s", i, rec.Outcome)
		}
	}

	// The same scripted stream must be reproducible: two drivers with
	// one seed yield identical trees (spot check one file).
	d1 := workload.NewEditDriver(t.TempDir(), cfg.Units, 7)
	d2 := workload.NewEditDriver(t.TempDir(), cfg.Units, 7)
	for i := 0; i < 20; i++ {
		e1, e2 := d1.Plan(), d2.Plan()
		if e1 != e2 {
			t.Fatalf("edit stream diverged at %d: %+v vs %+v", i, e1, e2)
		}
	}
}

// TestGroupFileChange: adding a unit to the group file mid-session must
// reload the group and build the new unit.
func TestGroupFileChange(t *testing.T) {
	cfg := workload.Config{Shape: workload.Chain, Units: 3, LinesPerUnit: 8,
		FunsPerUnit: 2, FanIn: 1, LayerWidth: 1, Seed: 5}
	s := startSession(t, cfg, 0, 0)
	s.wait(0)

	extra := "structure Extra = struct val marker = U000.f0 7 end\n"
	if err := os.WriteFile(filepath.Join(s.projDir, "extra.sml"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	gdata, err := os.ReadFile(s.group)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.group, append(gdata, []byte("extra.sml\n")...), 0o644); err != nil {
		t.Fatal(err)
	}

	ev := s.wait(1)
	if ev.Outcome != OutcomeOK {
		t.Fatalf("rebuild after group change failed: %s", ev.Error)
	}
	found := false
	for _, name := range ev.Changed {
		if name == "group.cm" {
			found = true
		}
	}
	if !found {
		t.Errorf("event.Changed = %v, want group.cm", ev.Changed)
	}
	s.assertBinsMatchColdBuild(1, 1)
}

// TestFailingEditThenFix: a broken edit must produce an error event and
// leave the session alive; the fixing edit rebuilds cleanly.
func TestFailingEditThenFix(t *testing.T) {
	cfg := workload.Config{Shape: workload.Chain, Units: 3, LinesPerUnit: 8,
		FunsPerUnit: 2, FanIn: 1, LayerWidth: 1, Seed: 5}
	s := startSession(t, cfg, 0, 0)
	s.wait(0)

	path := filepath.Join(s.projDir, workload.UnitName(1))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("structure Broken = struct val x = ("), 0o644); err != nil {
		t.Fatal(err)
	}
	ev := s.wait(1)
	if ev.Outcome != OutcomeError || ev.Error == "" {
		t.Fatalf("broken edit event = %+v, want error outcome", ev)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	ev = s.wait(2)
	if ev.Outcome != OutcomeOK {
		t.Fatalf("fix did not rebuild cleanly: %s", ev.Error)
	}
	s.assertBinsMatchColdBuild(2, 1)

	rep := s.w.Report()
	if rep.BuildErrors != 1 {
		t.Errorf("report build_errors = %d, want 1", rep.BuildErrors)
	}
}

// TestHubDropsSlowSubscriber: a subscriber that never drains must not
// block Publish, and an active subscriber still receives.
func TestHubDropsSlowSubscriber(t *testing.T) {
	hub := NewHub()
	_, cancelSlow := hub.Subscribe() // never read
	defer cancelSlow()
	live, cancelLive := hub.Subscribe()
	defer cancelLive()

	done := make(chan struct{})
	go func() {
		for i := 0; i < subBuffer*3; i++ {
			hub.Publish(Event{Seq: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	// The live channel holds the first subBuffer events (it was never
	// drained either), proving delivery happened before the overflow.
	if ev := <-live; ev.Seq != 0 {
		t.Fatalf("first delivered event seq = %d", ev.Seq)
	}
	cancelLive()
	cancelLive() // idempotent
	hub.Publish(Event{Seq: 999})

	var nilHub *Hub
	nilHub.Publish(Event{}) // must not panic
}

// TestCollectorStaysFlat: a session keeps one collector for its whole
// life, so each iteration must drop its spans and explain records once
// it ends. After n rebuilds the collector may hold at most one build's
// worth of them — here, what one cold build of the same project opens.
func TestCollectorStaysFlat(t *testing.T) {
	const edits = 6
	cfg := workload.Small()
	s := startSession(t, cfg, 2, edits)
	s.wait(0)

	g, err := core.LoadGroup(s.group)
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.New()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Obs: ref}
	if _, err := m.Build(g.Files); err != nil {
		t.Fatal(err)
	}
	perBuild, _ := ref.SpanCounts()
	perBuild++ // the iteration's own watch span

	driver := workload.NewEditDriver(s.projDir, cfg.Units, 3)
	for k := 1; k <= edits; k++ {
		if _, err := driver.Next(); err != nil {
			t.Fatal(err)
		}
		s.wait(k)
	}
	select {
	case err := <-s.done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher did not stop at MaxBuilds")
	}
	if opened, _ := s.col.SpanCounts(); opened > perBuild {
		t.Errorf("after %d iterations the collector holds %d spans, want at most %d",
			edits+1, opened, perBuild)
	}
	if n := len(s.col.Explains()); n > cfg.Units {
		t.Errorf("after %d iterations the collector holds %d explain records, want at most %d",
			edits+1, n, cfg.Units)
	}
	if got := s.col.Builds(); got != edits+1 {
		t.Errorf("Builds() = %d, want %d", got, edits+1)
	}
}
