package interp

// Machine-level profiler invariants: the step count a build observes
// (exec.steps, MaxSteps budgets) is identical with profiling on or
// off, sample windows only accumulate between Begin/EndUnitProfile,
// and forks inherit the profiling configuration while keeping their
// sample buffers private.

import (
	"testing"

	"repro/internal/lambda"
)

// factTerm builds `fix fact n = if n = 0 then 1 else n * fact (n-1)
// in fact 10` — enough applications to cross a small sample period.
func factTerm() lambda.Exp {
	var g lambda.Gen
	fact := g.Fresh()
	n := g.Fresh()
	body := &lambda.If{
		Cond: &lambda.Prim{Op: "eq", Args: []lambda.Exp{&lambda.Var{LV: n}, lint(0)}},
		Then: lint(1),
		Else: &lambda.Prim{Op: "mul", Args: []lambda.Exp{
			&lambda.Var{LV: n},
			&lambda.App{Fn: &lambda.Var{LV: fact}, Arg: &lambda.Prim{
				Op: "sub", Args: []lambda.Exp{&lambda.Var{LV: n}, lint(1)},
			}},
		}},
	}
	return &lambda.Fix{
		Names: []lambda.LVar{fact},
		Fns:   []*lambda.Fn{{Param: n, Body: body}},
		Body:  &lambda.App{Fn: &lambda.Var{LV: fact}, Arg: lint(10)},
	}
}

// TestProfilingPreservesSteps runs factTerm's compiled form with
// profiling off and on: steps and value must agree.
func TestProfilingPreservesSteps(t *testing.T) {
	run := func(profiled bool) (uint64, Value) {
		// Param 0 is never issued by lambda.Gen, so it shadows nothing.
		prog, _, err := CompileFn(&lambda.Fn{Body: factTerm()})
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine()
		if profiled {
			m.StartProfile(4)
			m.ProfRegister("u", prog)
			m.BeginUnitProfile("u")
		}
		v, err := m.Apply(&CompiledClosure{Fn: prog}, Unit())
		if err != nil {
			t.Fatal(err)
		}
		if profiled {
			if up := m.EndUnitProfile(); up == nil || up.Samples() == 0 {
				t.Fatalf("unit profile %+v, want samples", up)
			}
		}
		return m.Steps, v
	}
	plainSteps, plainV := run(false)
	profSteps, profV := run(true)
	if plainSteps != profSteps {
		t.Errorf("steps %d unprofiled, %d profiled", plainSteps, profSteps)
	}
	if !Eq(plainV, profV) {
		t.Errorf("value %s unprofiled, %s profiled", String(plainV), String(profV))
	}
}

func TestUnitProfileWindows(t *testing.T) {
	m := NewMachine()
	m.StartProfile(4)
	// No window open: execution runs unattributed.
	evalOK(t, m, factTerm())
	if up := m.EndUnitProfile(); up != nil {
		t.Fatalf("EndUnitProfile with no open window returned %+v", up)
	}
	if ups := m.TakeUnitProfiles(); len(ups) != 0 {
		t.Fatalf("windowless execution produced %d unit profiles", len(ups))
	}
	// A window accumulates only its own steps.
	m.BeginUnitProfile("first")
	evalOK(t, m, factTerm())
	m.BeginUnitProfile("second") // resets: a fresh accumulator and countdown
	if up := m.EndUnitProfile(); up == nil || up.Unit != "second" || up.Steps != 0 {
		t.Fatalf("empty second window = %+v", up)
	}
	ups := m.TakeUnitProfiles()
	if len(ups) != 1 || ups[0].Unit != "second" {
		t.Fatalf("TakeUnitProfiles = %+v", ups)
	}
	if ups := m.TakeUnitProfiles(); len(ups) != 0 {
		t.Fatalf("second Take returned %d profiles, want drained", len(ups))
	}
}

func TestForkInheritsProfiling(t *testing.T) {
	m := NewMachine()
	m.StartProfile(4)
	f := m.Fork()
	if !f.ProfileEnabled() || f.ProfilePeriod() != 4 {
		t.Fatalf("fork profiling enabled=%v period=%d", f.ProfileEnabled(), f.ProfilePeriod())
	}
	f.BeginUnitProfile("forked")
	evalOK(t, f, factTerm())
	if up := f.EndUnitProfile(); up == nil || up.Steps == 0 {
		t.Fatalf("forked window = %+v", up)
	}
	// The fork's samples stay on the fork; the parent's buffer is empty.
	if ups := m.TakeUnitProfiles(); len(ups) != 0 {
		t.Fatalf("parent machine holds %d unit profiles from the fork", len(ups))
	}
	if ups := f.TakeUnitProfiles(); len(ups) != 1 {
		t.Fatalf("fork holds %d unit profiles, want 1", len(ups))
	}
}
