package linker

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

func newSession(t *testing.T) *compiler.Session {
	t.Helper()
	var sink bytes.Buffer
	s, err := compiler.NewSession(&sink)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compileChain compiles a provider/client pair without executing.
func compileChain(t *testing.T, s *compiler.Session) (prov, client *compiler.Unit) {
	t.Helper()
	prov, err := s.Compile("prov", "val base = 5")
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, prov, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	s.Accept(prov)
	client, err = s.Compile("client", "val out = base * 2")
	if err != nil {
		t.Fatal(err)
	}
	return prov, client
}

func TestVerifyAccepts(t *testing.T) {
	s := newSession(t)
	prov, client := compileChain(t, s)
	if errs := Verify([]*compiler.Unit{prov, client}, s.Dyn); len(errs) != 0 {
		t.Fatalf("verify rejected a consistent set: %v", errs[0])
	}
}

func TestVerifyRejectsMissingProvider(t *testing.T) {
	s := newSession(t)
	_, client := compileChain(t, s)
	errs := Verify([]*compiler.Unit{client}, nil)
	if len(errs) == 0 {
		t.Fatal("missing provider accepted")
	}
	if !strings.Contains(errs[0].Error(), "no provider") {
		t.Errorf("error text %q", errs[0])
	}
}

func TestVerifyBaseEnvironmentCounts(t *testing.T) {
	s := newSession(t)
	_, client := compileChain(t, s)
	// The provider's exports are already in the session dynenv (it was
	// executed), so the base environment satisfies the client alone.
	if errs := Verify([]*compiler.Unit{client}, s.Dyn); len(errs) != 0 {
		t.Fatalf("base dynenv not consulted: %v", errs[0])
	}
}

func TestSortOrdersProvidersFirst(t *testing.T) {
	s := newSession(t)
	prov, client := compileChain(t, s)
	order, err := Sort([]*compiler.Unit{client, prov})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != prov || order[1] != client {
		t.Errorf("order %s, %s", order[0].Name, order[1].Name)
	}
}

func TestSortDeterministicTieBreak(t *testing.T) {
	s := newSession(t)
	a, err := s.Compile("aaa", "val independent1 = 1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compile("bbb", "val independent2 = 2")
	if err != nil {
		t.Fatal(err)
	}
	order, err := Sort([]*compiler.Unit{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if order[0].Name != "aaa" {
		t.Error("ties not broken by name")
	}
}

func TestRunExecutesInOrder(t *testing.T) {
	s := newSession(t)
	var out bytes.Buffer
	s.Machine.Stdout = &out
	prov, err := s.Compile("p", `val _ = print "first\n" val v = 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Client compiled against prov's env.
	if err := compiler.Execute(s.Machine, prov, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	s.Accept(prov)
	out.Reset()
	client, err := s.Compile("c", `val _ = print "second\n" val w = v + 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh dynenv: run both through the linker.
	dyn := s.Dyn.Copy()
	if err := Run(s.Machine, []*compiler.Unit{client, prov}, dyn, nil, nil); err != nil {
		t.Fatal(err)
	}
	lines := out.String()
	if !strings.Contains(lines, "first\nsecond\n") {
		t.Errorf("execution order: %q", lines)
	}
	// `val _ = print ...` binds nothing, so w is export slot 0.
	v, ok := dyn.Lookup(client.ExportPid(0))
	if !ok || v != interp.IntV(2) {
		t.Errorf("client result %v", v)
	}
}

func TestRunReportsFirstError(t *testing.T) {
	s := newSession(t)
	_, client := compileChain(t, s)
	err := Run(s.Machine, []*compiler.Unit{client}, nil, nil, nil)
	if err == nil {
		t.Fatal("inconsistent link set ran")
	}
}

// TestRunReturnsEveryVerifyError: Run is the one verifier — a link set
// that fails verification runs nothing and returns every failure.
func TestRunReturnsEveryVerifyError(t *testing.T) {
	s := newSession(t)
	var out bytes.Buffer
	s.Machine.Stdout = &out
	_, client := compileChain(t, s)
	other, err := s.Compile("other", `val _ = print "ran\n" val more = base + 1`)
	if err != nil {
		t.Fatal(err)
	}
	err = Run(s.Machine, []*compiler.Unit{client, other}, nil, nil, nil)
	j, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Run returned %v, want the joined verify errors", err)
	}
	if errs := j.Unwrap(); len(errs) != 2 {
		t.Errorf("Run returned %d verify errors, want 2: %v", len(errs), err)
	}
	if out.Len() != 0 {
		t.Errorf("a link set that failed verification printed %q", out.String())
	}
}
