// Scheduler edge-case and determinism coverage (DESIGN.md §4e): the
// hard requirement is that a build's outputs — bin files, core.Stats,
// explain records — are identical whatever core.Manager.Jobs, proven here
// by diffing -j1 against -j8 across the whole edit matrix. Run under
// -race, these tests are also the concurrency suite for the worker
// pool.
package core_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// buildMatrix runs the edit matrix (cold, null, impl-edit,
// interface-edit) at one scheduler width over one fresh core.MemStore and
// returns the store plus per-scenario stats and explains.
func buildMatrix(t *testing.T, p *workload.Project, jobs int) (*core.MemStore, []core.Stats, [][]obs.Explain) {
	t.Helper()
	store := core.NewMemStore()
	scenarios := [][]core.File{
		p.Files,
		p.Files,
		p.Edit(0, workload.ImplEdit, 1),
		p.Edit(0, workload.InterfaceEdit, 2),
	}
	var stats []core.Stats
	var explains [][]obs.Explain
	for i, files := range scenarios {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: jobs}
		if _, err := m.Build(files); err != nil {
			t.Fatalf("jobs=%d scenario %d: %v", jobs, i, err)
		}
		stats = append(stats, m.Stats)
		explains = append(explains, m.Explains)
	}
	return store, stats, explains
}

// TestSchedulerDeterministicAcrossJobs is the golden determinism test:
// -j1 and -j8 builds of the same project, through the same edit
// matrix, must produce byte-identical bin files, identical core.Stats
// counts, and identical explain records.
func TestSchedulerDeterministicAcrossJobs(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 24, LinesPerUnit: 10,
		FunsPerUnit: 3, FanIn: 3, LayerWidth: 6, Seed: 1994,
	})
	store1, stats1, exp1 := buildMatrix(t, p, 1)
	store8, stats8, exp8 := buildMatrix(t, p, 8)

	for i := range stats1 {
		if stats1[i] != stats8[i] {
			t.Errorf("scenario %d: stats differ\n-j1: %+v\n-j8: %+v", i, stats1[i], stats8[i])
		}
		if !reflect.DeepEqual(exp1[i], exp8[i]) {
			t.Errorf("scenario %d: explain records differ\n-j1: %+v\n-j8: %+v", i, exp1[i], exp8[i])
		}
	}
	for i := 0; i < 24; i++ {
		name := workload.UnitName(i)
		e1, err1 := store1.Load(name)
		e8, err8 := store8.Load(name)
		if err1 != nil || err8 != nil || e1 == nil || e8 == nil {
			t.Fatalf("%s: missing cache entry (err1=%v err8=%v)", name, err1, err8)
		}
		if e1.StatPid != e8.StatPid {
			t.Errorf("%s: interface pid differs: -j1 %s, -j8 %s", name, e1.StatPid, e8.StatPid)
		}
		if !bytes.Equal(e1.Bin, e8.Bin) {
			t.Errorf("%s: bin files differ between -j1 and -j8 (%d vs %d bytes)",
				name, len(e1.Bin), len(e8.Bin))
		}
	}
}

// TestSchedulerExplainOrderIsTopological pins the commit order: one
// explain record per unit, in the same topological order at every
// width — what the sequential loop produced.
func TestSchedulerExplainOrderIsTopological(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Diamond, Units: 13, LinesPerUnit: 8,
		FunsPerUnit: 2, LayerWidth: 4, Seed: 7,
	})
	var orders [][]string
	for _, jobs := range []int{1, 8} {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(), Stdout: io.Discard, Jobs: jobs}
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(m.Explains) != len(p.Files) {
			t.Fatalf("jobs=%d: %d explains for %d units", jobs, len(m.Explains), len(p.Files))
		}
		var names []string
		for _, e := range m.Explains {
			names = append(names, e.Unit)
		}
		orders = append(orders, names)
	}
	if !reflect.DeepEqual(orders[0], orders[1]) {
		t.Errorf("explain order differs:\n-j1: %v\n-j8: %v", orders[0], orders[1])
	}
}

// TestSchedulerDiamond: a diamond DAG (join units alternating with
// wide layers) builds correctly in parallel, and a null rebuild
// reloads everything.
func TestSchedulerDiamond(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Diamond, Units: 17, LinesPerUnit: 8,
		FunsPerUnit: 2, LayerWidth: 5, Seed: 3,
	})
	store := core.NewMemStore()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 8}
	if _, err := m.Build(p.Files); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 17 || m.Stats.Executed != 17 {
		t.Fatalf("cold diamond: compiled=%d executed=%d", m.Stats.Compiled, m.Stats.Executed)
	}
	m2 := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 8}
	if _, err := m2.Build(p.Files); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.Loaded != 17 || m2.Stats.Compiled != 0 {
		t.Fatalf("null diamond: loaded=%d compiled=%d", m2.Stats.Loaded, m2.Stats.Compiled)
	}
}

// TestSchedulerWideFanOut: one base unit with 64 independent leaves —
// the maximally parallel shape. All 65 must compile, execute, and be
// reloadable.
func TestSchedulerWideFanOut(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Fan, Units: 65, LinesPerUnit: 6,
		FunsPerUnit: 2, Seed: 11,
	})
	store := core.NewMemStore()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 8}
	if _, err := m.Build(p.Files); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 65 {
		t.Fatalf("fan-out cold: compiled=%d, want 65", m.Stats.Compiled)
	}
	if got := m.Counters["build.parallelism.max"]; got < 1 || got > 8 {
		t.Fatalf("parallelism.max=%d, want within [1,8]", got)
	}
	m2 := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 8}
	if _, err := m2.Build(p.Files); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.Loaded != 65 {
		t.Fatalf("fan-out null: loaded=%d, want 65", m2.Stats.Loaded)
	}
}

// failureFiles is a group where the second unit (in topological
// order) fails to compile: a is fine, bad references an unbound name,
// c depends on bad, and i1/i2 are independent of all of them but sit
// after bad in the order.
func failureFiles() []core.File {
	return []core.File{
		{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
		{Name: "bad.sml", Source: "structure Bad = struct val x = A.one + missing end"},
		{Name: "c.sml", Source: "structure C = struct val y = Bad.x end"},
		{Name: "i1.sml", Source: "structure I1 = struct val a = 10 end"},
		{Name: "i2.sml", Source: "structure I2 = struct val b = 20 end"},
	}
}

// TestSchedulerFailureSemantics: a failing unit mid-build cancels its
// dependents but leaves units before it committed; everything after
// the failure in commit order — dependent or independent — is
// invisible, exactly as in the sequential build. The -j1 and -j8 runs
// must agree on all of it.
func TestSchedulerFailureSemantics(t *testing.T) {
	type outcome struct {
		errText  string
		explains []obs.Explain
		cached   map[string]bool
	}
	run := func(jobs int) outcome {
		store := core.NewMemStore()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: jobs}
		_, err := m.Build(failureFiles())
		if err == nil {
			t.Fatalf("jobs=%d: build of failing group succeeded", jobs)
		}
		cached := map[string]bool{}
		for _, f := range failureFiles() {
			if e, _ := store.Load(f.Name); e != nil {
				cached[f.Name] = true
			}
		}
		return outcome{errText: err.Error(), explains: m.Explains, cached: cached}
	}
	o1 := run(1)
	o8 := run(8)

	if !strings.Contains(o1.errText, "bad.sml") {
		t.Errorf("error does not name the failing unit: %q", o1.errText)
	}
	if o1.errText != o8.errText {
		t.Errorf("error differs: -j1 %q, -j8 %q", o1.errText, o8.errText)
	}
	if !reflect.DeepEqual(o1.explains, o8.explains) {
		t.Errorf("explains differ:\n-j1: %+v\n-j8: %+v", o1.explains, o8.explains)
	}
	// Only a.sml committed before the failure; the dependent c.sml was
	// cancelled and the independents i1/i2 sit after bad.sml in commit
	// order, so no speculative result of theirs may reach the store.
	want := map[string]bool{"a.sml": true}
	if !reflect.DeepEqual(o1.cached, want) || !reflect.DeepEqual(o8.cached, want) {
		t.Errorf("cache after failure: -j1 %v, -j8 %v, want %v", o1.cached, o8.cached, want)
	}
	// The explain stream covers exactly the committed prefix: a.sml
	// then the failing bad.sml.
	var units []string
	for _, e := range o1.explains {
		units = append(units, e.Unit)
	}
	if !reflect.DeepEqual(units, []string{"a.sml", "bad.sml"}) {
		t.Errorf("explained units %v, want [a.sml bad.sml]", units)
	}
	last := o1.explains[len(o1.explains)-1]
	if last.Error == "" {
		t.Errorf("failing unit's explain has no error: %+v", last)
	}
}

// TestSchedulerIndependentPrefixSurvivesFailure: units before the
// failing unit in commit order complete and are cached even when they
// only become ready concurrently with the failure.
func TestSchedulerIndependentPrefixSurvivesFailure(t *testing.T) {
	files := []core.File{
		{Name: "p1.sml", Source: "structure P1 = struct val a = 1 end"},
		{Name: "p2.sml", Source: "structure P2 = struct val b = P1.a + 1 end"},
		{Name: "p3.sml", Source: "structure P3 = struct val c = P2.b + 1 end"},
		{Name: "boom.sml", Source: "val _ = nope"},
	}
	for _, jobs := range []int{1, 8} {
		store := core.NewMemStore()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: jobs}
		if _, err := m.Build(files); err == nil {
			t.Fatalf("jobs=%d: build of failing group succeeded", jobs)
		}
		for _, name := range []string{"p1.sml", "p2.sml", "p3.sml"} {
			if e, _ := store.Load(name); e == nil {
				t.Errorf("jobs=%d: %s not cached despite preceding the failure", jobs, name)
			}
		}
		if len(m.Explains) != 4 {
			t.Errorf("jobs=%d: %d explains, want 4", jobs, len(m.Explains))
		}
	}
}

// TestMemStoreConcurrentAccess is the -race regression test for the
// Store contract: goroutines sharing one core.MemStore (as bench and test
// code does) must not race.
func TestMemStoreConcurrentAccess(t *testing.T) {
	store := core.NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("u%d.sml", i%10)
				if i%3 == 0 {
					if err := store.Save(name, &core.Entry{Bin: []byte{byte(g), byte(i)}}); err != nil {
						t.Errorf("save: %v", err)
					}
				} else {
					if _, err := store.Load(name); err != nil {
						t.Errorf("load: %v", err)
					}
					store.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSchedulerSharedMemStoreManagers: whole Managers running
// concurrently over one shared core.MemStore — the Store contract end to
// end, under -race.
func TestSchedulerSharedMemStoreManagers(t *testing.T) {
	store := core.NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 4}
			if _, err := m.Build(chainFiles(aV1)); err != nil {
				t.Errorf("concurrent managers: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestSchedWaitBound pins the build.sched.wait_ns accounting contract
// (DESIGN.md §4d): the counter is worker idle time — how long workers
// blocked waiting for a dispatch — so each worker contributes at most
// the build's wall clock, the final wait that ends with pool shutdown
// is not counted, and the sum is bounded by jobs × wall. A regression
// that starts counting shutdown waits, or double-counts a worker,
// breaks the bound immediately.
func TestSchedWaitBound(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 24, LinesPerUnit: 10,
		FanIn: 3, Seed: 7,
	})
	for _, jobs := range []int{1, 4} {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Jobs: jobs}
		start := time.Now()
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		wall := time.Since(start)
		wait := m.Counters["build.sched.wait_ns"]
		if wait < 0 {
			t.Errorf("jobs=%d: wait_ns=%d is negative", jobs, wait)
		}
		if bound := int64(jobs) * int64(wall); wait > bound {
			t.Errorf("jobs=%d: wait_ns=%d exceeds jobs×wall=%d (wall %v)",
				jobs, wait, bound, wall)
		}
	}
}
