package workload

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

func TestGeneratedProjectsBuild(t *testing.T) {
	for _, shape := range []Shape{Chain, Fan, Diamond, Layered} {
		t.Run(shape.String(), func(t *testing.T) {
			cfg := Small()
			cfg.Shape = shape
			p := Generate(cfg)
			m := core.NewManager()
			if _, err := m.Build(p.Files); err != nil {
				t.Fatalf("%s project failed to build: %v", shape, err)
			}
			if m.Stats.Compiled != cfg.Units {
				t.Errorf("compiled %d units, want %d", m.Stats.Compiled, cfg.Units)
			}
		})
	}
}

// TestClausalProjectOutput runs the golden corpus's hand-written
// project of curried clausal functions and checks what it prints.
func TestClausalProjectOutput(t *testing.T) {
	var out bytes.Buffer
	m := core.NewManager()
	m.Stdout = &out
	if _, err := m.Build(clausalProject().Files); err != nil {
		t.Fatal(err)
	}
	if want := "111 222\n1,2,3,4,9,10\norigin n=15\n30\n"; out.String() != want {
		t.Errorf("printed %q, want %q", out.String(), want)
	}
}

func TestGeneratedProjectWithFunctors(t *testing.T) {
	cfg := Small()
	cfg.Functors = true
	cfg.Units = 10
	p := Generate(cfg)
	m := core.NewManager()
	if _, err := m.Build(p.Files); err != nil {
		t.Fatalf("functorized project failed to build: %v", err)
	}
}

func TestEditsBehaveAsLabelled(t *testing.T) {
	cfg := Small()
	p := Generate(cfg)
	target := cfg.Units / 2

	cases := []struct {
		kind         EditKind
		wantCompiled int
	}{
		{CommentEdit, 1},
		{ImplEdit, 1},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			m := core.NewManager()
			if _, err := m.Build(p.Files); err != nil {
				t.Fatal(err)
			}
			edited := p.Edit(target, c.kind, 1)
			if _, err := m.Build(edited); err != nil {
				t.Fatal(err)
			}
			if m.Stats.Compiled != c.wantCompiled {
				t.Errorf("%s edit: compiled=%d, want %d",
					c.kind, m.Stats.Compiled, c.wantCompiled)
			}
		})
	}

	// Interface edit recompiles at least the direct dependents.
	t.Run("interface", func(t *testing.T) {
		m := core.NewManager()
		if _, err := m.Build(p.Files); err != nil {
			t.Fatal(err)
		}
		edited := p.Edit(target, InterfaceEdit, 1)
		if _, err := m.Build(edited); err != nil {
			t.Fatal(err)
		}
		direct := 0
		for _, ds := range p.Deps {
			for _, d := range ds {
				if d == target {
					direct++
					break
				}
			}
		}
		if m.Stats.Compiled < 1+direct {
			t.Errorf("interface edit: compiled=%d, want >= %d", m.Stats.Compiled, 1+direct)
		}
	})
}

func TestDownstreamCone(t *testing.T) {
	cfg := Small()
	cfg.Shape = Chain
	cfg.Units = 5
	p := Generate(cfg)
	cone := p.DownstreamCone(2)
	for i := 0; i < 5; i++ {
		want := i >= 2
		if cone[i] != want {
			t.Errorf("cone[%d] = %v, want %v", i, cone[i], want)
		}
	}
}

func TestLineCalibration(t *testing.T) {
	p := Generate(CompilerScale())
	lines := p.LineCount()
	if lines < 50000 || lines > 80000 {
		t.Errorf("CompilerScale produced %d lines; want ≈65k", lines)
	}
	if len(p.Files) != 200 {
		t.Errorf("CompilerScale produced %d units; want 200", len(p.Files))
	}
}
