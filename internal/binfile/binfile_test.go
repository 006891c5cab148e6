package binfile

import (
	"bytes"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/linker"
)

// newSession is a test helper.
func newSession(t *testing.T) *compiler.Session {
	t.Helper()
	var sink bytes.Buffer
	s, err := compiler.NewSession(&sink)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return s
}

// TestRoundTripSimple compiles a unit, writes it to a bin file, reads
// it back in a fresh session, and executes it there.
func TestRoundTripSimple(t *testing.T) {
	s1 := newSession(t)
	u1, err := s1.Run("lib", `
		val base = 40
		fun bump n = n + 2
		datatype color = Red | Green | Blue
		fun name Red = "red" | name Green = "green" | name Blue = "blue"
	`)
	if err != nil {
		t.Fatalf("compile lib: %v", err)
	}
	data, err := Encode(u1, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Fresh session (fresh prelude compile) must rehydrate the bin
	// against its own basis index.
	s2 := newSession(t)
	u2, err := Read(data, s2.Index, nil, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if u2.StatPid != u1.StatPid {
		t.Errorf("statpid changed across pickle round trip")
	}
	if err := compiler.Execute(s2.Machine, u2, s2.Dyn, nil, nil, 0); err != nil {
		t.Fatalf("execute rehydrated: %v", err)
	}
	s2.Accept(u2)

	u3, err := s2.Run("client", `
		val answer = bump base
		val n = name Green
	`)
	if err != nil {
		t.Fatalf("compile client against rehydrated env: %v", err)
	}
	_ = u3
	vb, _ := s2.Context.LookupVal("answer")
	v, ok := s2.Dyn.Lookup(vb.ExportPid)
	if !ok || v != interp.IntV(42) {
		t.Errorf("answer = %v, want 42", v)
	}
	nb, _ := s2.Context.LookupVal("n")
	nv, _ := s2.Dyn.Lookup(nb.ExportPid)
	if nv != interp.StrV("green") {
		t.Errorf("n = %v, want \"green\"", nv)
	}
}

// TestRoundTripModules exercises structures, signatures, and functors
// through the bin-file path: the functor is applied in a later session
// from its rehydrated AST.
func TestRoundTripModules(t *testing.T) {
	s1 := newSession(t)
	u1, err := s1.Run("modlib", `
		signature STACK = sig
		  type 'a stack
		  val empty : 'a stack
		  val push : 'a * 'a stack -> 'a stack
		  val pop : 'a stack -> ('a * 'a stack) option
		end

		structure Stack : STACK = struct
		  type 'a stack = 'a list
		  val empty = nil
		  fun push (x, s) = x :: s
		  fun pop nil = NONE
		    | pop (x :: r) = SOME (x, r)
		end

		functor Twice (X : sig val step : int -> int end) = struct
		  fun go n = X.step (X.step n)
		end
	`)
	if err != nil {
		t.Fatalf("compile modlib: %v", err)
	}
	data, err := Encode(u1, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	s2 := newSession(t)
	u2, err := Read(data, s2.Index, nil, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := compiler.Execute(s2.Machine, u2, s2.Dyn, nil, nil, 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	s2.Accept(u2)

	_, err = s2.Run("client", `
		structure Inc = struct fun step n = n + 1 end
		structure T = Twice (Inc)
		val four = T.go 2
		val s1 = Stack.push (7, Stack.empty)
		val top = case Stack.pop s1 of SOME (x, _) => x | NONE => 0
	`)
	if err != nil {
		t.Fatalf("compile client: %v", err)
	}
	vb, _ := s2.Context.LookupVal("four")
	v, _ := s2.Dyn.Lookup(vb.ExportPid)
	if v != interp.IntV(4) {
		t.Errorf("four = %v", v)
	}
	tb, _ := s2.Context.LookupVal("top")
	tv, _ := s2.Dyn.Lookup(tb.ExportPid)
	if tv != interp.IntV(7) {
		t.Errorf("top = %v", tv)
	}
}

// TestHeaderOnly checks the cheap header decode used by dependency
// analysis.
func TestHeaderOnly(t *testing.T) {
	s := newSession(t)
	u, err := s.Run("h", "val x = 1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	name, statPid, imports, numSlots, err := ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "h" || statPid != u.StatPid || len(imports) != len(u.Imports) || numSlots != u.NumSlots {
		t.Errorf("header mismatch: %s %s %d %d", name, statPid.Short(), len(imports), numSlots)
	}
}

// TestStaleBinRejected is the paper's §5 makefile-bug scenario: a
// client bin compiled against an old provider interface must fail
// type-safe linkage when the provider's interface changes.
func TestStaleBinRejected(t *testing.T) {
	s1 := newSession(t)
	_, err := s1.Run("provider", "val shared = 10")
	if err != nil {
		t.Fatal(err)
	}
	uClient, err := s1.Run("client", "val doubled = shared + shared")
	if err != nil {
		t.Fatal(err)
	}
	clientBin, err := Encode(uClient, nil)
	if err != nil {
		t.Fatal(err)
	}

	// New session: provider recompiled with a *different* interface.
	s2 := newSession(t)
	uProv2, err := s2.Run("provider", "val shared = \"ten\"")
	if err != nil {
		t.Fatal(err)
	}

	// The client bin cannot even be rehydrated-and-linked: its import
	// pid no longer has a provider.
	uClient2, err := Read(clientBin, s2.Index, nil, nil)
	if err != nil {
		t.Fatalf("read client bin: %v", err)
	}
	errs := linker.Verify([]*compiler.Unit{uProv2, uClient2}, s2.Dyn)
	if len(errs) == 0 {
		t.Fatal("stale client bin linked against changed provider interface; want linkage error")
	}
}
