// Parallel-execution shared-state coverage (DESIGN.md §4j): units
// whose imports reach a mutable cell (ref/array) must execute in
// commit order — the sequential interleaving — at any -j, under -race;
// speculative executions must leave no trace in output or counters, and
// a failed build returns no session, so their dynenv binds are never
// seen; and the session step budget must abort cumulatively at any
// width.
package core_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// sharedRefFiles: a base unit exports a ref; four sibling writers
// mutate it with non-commuting operations; a reader prints it. None of
// the mutators depend on each other, so only the §4j mutable-import
// rule — not the import DAG — forces the sequential order:
// ((((1*2)+3)*5)+7) = 32.
func sharedRefFiles() []core.File {
	return []core.File{
		{Name: "base.sml", Source: "structure Base = struct val r = ref 1 end"},
		{Name: "m1.sml", Source: "structure M1 = struct val _ = Base.r := !Base.r * 2 end"},
		{Name: "m2.sml", Source: "structure M2 = struct val _ = Base.r := !Base.r + 3 end"},
		{Name: "m3.sml", Source: "structure M3 = struct val _ = Base.r := !Base.r * 5 end"},
		{Name: "m4.sml", Source: "structure M4 = struct val _ = Base.r := !Base.r + 7 end"},
		{Name: "last.sml", Source: "structure Last = struct val _ = print (Int.toString (!Base.r)) end"},
	}
}

// TestExecSharedRefSequentialOrder: sibling units sharing a ref read
// and write it in commit order at every width — repeatedly, so a
// regression shows up as both nondeterministic output and (under
// -race) a data race on the cell.
func TestExecSharedRefSequentialOrder(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		for round := 0; round < 10; round++ {
			var out bytes.Buffer
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: &out, Jobs: jobs}
			if _, err := m.Build(sharedRefFiles()); err != nil {
				t.Fatalf("jobs=%d round %d: %v", jobs, round, err)
			}
			if got := out.String(); got != "32" {
				t.Fatalf("jobs=%d round %d: printed %q, want \"32\" (sequential order)",
					jobs, round, got)
			}
			// base is pure (it only creates the ref); the four mutators
			// and the reader import it, so exactly 5 executions are
			// serialized — at -j1 as much as -j8.
			if got := m.Counters["exec.serialized"]; got != 5 {
				t.Fatalf("jobs=%d round %d: exec.serialized=%d, want 5", jobs, round, got)
			}
		}
	}
}

// TestExecSharedRefThroughClosure: the mutable cell is never imported
// directly — the siblings reach it only through another unit's
// exported closures — so the serialization decision must follow value
// reachability, not just import types.
func TestExecSharedRefThroughClosure(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val r = ref 0 end"},
		{Name: "b.sml", Source: "structure B = struct fun put x = A.r := x fun get () = !A.r end"},
		{Name: "w.sml", Source: "structure W = struct val _ = B.put 5 end"},
		{Name: "z.sml", Source: "structure Z = struct val _ = print (Int.toString (B.get ())) end"},
	}
	for _, jobs := range []int{1, 8} {
		for round := 0; round < 10; round++ {
			var out bytes.Buffer
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: &out, Jobs: jobs}
			if _, err := m.Build(files); err != nil {
				t.Fatalf("jobs=%d round %d: %v", jobs, round, err)
			}
			if got := out.String(); got != "5" {
				t.Fatalf("jobs=%d round %d: printed %q, want \"5\" (w before z)",
					jobs, round, got)
			}
		}
	}
}

// TestExecPureProjectNotSerialized: a workload without refs or arrays
// must pay nothing for the mutable-import rule — no unit serialized,
// at any width, cold and warm.
func TestExecPureProjectNotSerialized(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Diamond, Units: 13, LinesPerUnit: 8,
		FunsPerUnit: 2, LayerWidth: 4, Seed: 21,
	})
	store := core.NewMemStore()
	for _, pass := range []string{"cold", "warm"} {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: io.Discard, Jobs: 8}
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if got := m.Counters["exec.serialized"]; got != 0 {
			t.Fatalf("%s: exec.serialized=%d on a pure project, want 0", pass, got)
		}
	}
}

// TestExecFailureSpeculationCounters: a unit failing at *execution*
// (uncaught Div) aborts the build at its commit; speculative
// executions of units after it in commit order must leave no trace —
// identical explains, error, and deterministic counters at -j1/-j8.
// (Their dynenv binds land in the session env, which the failed build
// never returns: TestFailedBuildReturnsNoSession.)
func TestExecFailureSpeculationCounters(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
		{Name: "boom.sml", Source: "structure Boom = struct val x = A.one div 0 end"},
		{Name: "i1.sml", Source: "structure I1 = struct val a = 10 end"},
		{Name: "i2.sml", Source: "structure I2 = struct val b = 20 end"},
	}
	type outcome struct {
		errText  string
		explains []string
		counters map[string]int64
	}
	run := func(jobs int) outcome {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Jobs: jobs}
		_, err := m.Build(files)
		if err == nil {
			t.Fatalf("jobs=%d: build with failing execution succeeded", jobs)
		}
		var units []string
		for _, e := range m.Explains {
			units = append(units, e.Unit)
		}
		// Keep only scheduling-invariant counters: drop wall-clock
		// timings and pool high-water marks.
		counters := map[string]int64{}
		for k, v := range m.Counters {
			if strings.Contains(k, "_ns") || strings.Contains(k, "parallelism") {
				continue
			}
			counters[k] = v
		}
		return outcome{errText: err.Error(), explains: units, counters: counters}
	}
	o1 := run(1)
	o8 := run(8)
	if !strings.Contains(o1.errText, "boom.sml") {
		t.Errorf("error does not name the failing unit: %q", o1.errText)
	}
	if o1.errText != o8.errText {
		t.Errorf("error differs: -j1 %q, -j8 %q", o1.errText, o8.errText)
	}
	if want := []string{"a.sml", "boom.sml"}; !reflect.DeepEqual(o1.explains, want) ||
		!reflect.DeepEqual(o8.explains, want) {
		t.Errorf("explains: -j1 %v, -j8 %v, want %v", o1.explains, o8.explains, want)
	}
	if !reflect.DeepEqual(o1.counters, o8.counters) {
		t.Errorf("counters differ after exec failure:\n-j1: %v\n-j8: %v", o1.counters, o8.counters)
	}
}

// TestExecStepBudgetCumulative pins the §4j budget contract: MaxSteps
// bounds the session cumulatively — the build fails at the unit whose
// execution pushes the total over — identically at every width, while
// a budget equal to the total passes.
func TestExecStepBudgetCumulative(t *testing.T) {
	files := []core.File{
		{Name: "s1.sml", Source: "fun f1 n = if n < 1 then 0 else f1 (n - 1)\nval a = f1 50"},
		{Name: "s2.sml", Source: "fun f2 n = if n < 1 then 0 else f2 (n - 1)\nval b = f2 50"},
		{Name: "s3.sml", Source: "fun f3 n = if n < 1 then 0 else f3 (n - 1)\nval c = f3 50"},
	}
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Jobs: 4}
	session, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	total := session.Machine.Steps
	if total == 0 {
		t.Fatal("session executed zero steps")
	}

	var errs []string
	for _, jobs := range []int{1, 8} {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Jobs: jobs, MaxSteps: total - 1}
		if _, err := m.Build(files); err == nil {
			t.Fatalf("jobs=%d: build under budget %d succeeded (total %d)", jobs, total-1, total)
		} else {
			if !strings.Contains(err.Error(), "step budget exceeded") {
				t.Fatalf("jobs=%d: unexpected error: %v", jobs, err)
			}
			errs = append(errs, err.Error())
		}
	}
	if errs[0] != errs[1] {
		t.Errorf("budget abort differs: -j1 %q, -j8 %q", errs[0], errs[1])
	}

	ok := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Jobs: 8, MaxSteps: total}
	if _, err := ok.Build(files); err != nil {
		t.Errorf("build at exactly the required budget failed: %v", err)
	}
}

// TestExecWorkerFramePool: each exec worker hands its frame pool from
// one unit's fork to the next, and no pool is shared between workers.
// Units that fold tabulated lists (pooled frames, curried calls, join
// points) run side by side and export closures over frames that must
// not be pooled; a last unit applies them all on whichever worker runs
// it. Output must be the sequential one, cold and warm, at any width
// (run it under -race).
func TestExecWorkerFramePool(t *testing.T) {
	files := []core.File{{Name: "p.sml", Source: `structure P = struct
  fun add3 a b c = a + b + c
  fun mk a b c = (fn () => a * 100 + b * 10 + c, c)
end`}}
	var use, want strings.Builder
	for n := 1; n <= 8; n++ {
		files = append(files, core.File{Name: fmt.Sprintf("u%d.sml", n), Source: fmt.Sprintf(`structure U%d = struct
  val s = foldl (fn (x, acc) => x + acc) 0 (List.tabulate (300, fn i => i + %d))
  val th = #1 (P.mk %d %d %d)
  val inc = P.add3 %d
end`, n, n, n, n+1, n+2, n)})
		fmt.Fprintf(&use, "  val _ = print (Int.toString (U%d.s + U%d.th () + U%d.inc 1 2) ^ \" \")\n", n, n, n)
		fmt.Fprintf(&want, "%d ", 300*299/2+300*n+(100*n+10*(n+1)+n+2)+(n+3))
	}
	files = append(files, core.File{Name: "z.sml", Source: "structure Z = struct\n" + use.String() + "end"})
	for _, jobs := range []int{1, 4} {
		store := core.NewMemStore()
		for round := 0; round < 3; round++ {
			var out bytes.Buffer
			m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: &out, Jobs: jobs}
			if _, err := m.Build(files); err != nil {
				t.Fatalf("jobs=%d round %d: %v", jobs, round, err)
			}
			if out.String() != want.String() {
				t.Fatalf("jobs=%d round %d: printed %q, want %q", jobs, round, out.String(), want.String())
			}
		}
	}
}

// TestFailedBuildReturnsNoSession pins the invariant that lets exec
// workers bind straight into the session's dynamic environment: every
// failing build — a compile error, an uncaught exception at execution,
// an exceeded step budget — returns a nil session at any width, so the
// binds of units executed speculatively past the failure are never
// observable.
func TestFailedBuildReturnsNoSession(t *testing.T) {
	spin := "fun spin n = if n < 1 then 0 else spin (n - 1)\n"
	cases := []struct {
		name     string
		want     string // in the build error
		maxSteps uint64
		files    []core.File
	}{
		{"compile", "bad.sml", 0, []core.File{
			{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
			{Name: "bad.sml", Source: "structure Bad = struct val x = A.one + \"s\" end"},
			{Name: "c.sml", Source: "structure C = struct val c = 3 end"},
		}},
		{"uncaught", "execute boom.sml", 0, []core.File{
			{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
			{Name: "boom.sml", Source: "structure Boom = struct val x = A.one div 0 end"},
			{Name: "c.sml", Source: "structure C = struct val c = 3 end"},
		}},
		{"budget", "step budget exceeded", 0, []core.File{
			{Name: "s1.sml", Source: spin + "val a = spin 50"},
			{Name: "s2.sml", Source: spin + "val b = spin 50"},
			{Name: "s3.sml", Source: spin + "val c = spin 50"},
		}},
	}
	// The budget case gets one step fewer than its build needs, so the
	// last unit's commit pushes the session total over.
	ok := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(), Stdout: io.Discard}
	session, err := ok.Build(cases[2].files)
	if err != nil {
		t.Fatal(err)
	}
	cases[2].maxSteps = session.Machine.Steps - 1
	for _, tc := range cases {
		for _, jobs := range []int{1, 8} {
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: io.Discard, Jobs: jobs, MaxSteps: tc.maxSteps}
			session, err := m.Build(tc.files)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, jobs=%d: error %v, want one containing %q", tc.name, jobs, err, tc.want)
			}
			if session != nil {
				t.Errorf("%s, jobs=%d: failed build (%v) returned a session", tc.name, jobs, err)
			}
		}
	}
}
