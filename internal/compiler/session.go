package compiler

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/basis"
	"repro/internal/dynenv"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/pickle"
)

// Session is an interactive compile-and-execute context (§3, §7): the
// accumulated static environment, the dynamic environment, the machine,
// and the rehydration index grow as units are compiled or loaded.
//
// Every session starts from the one process-wide prelude (the basis
// compiled once, see NewSession): its unit and its static context are
// shared and never written. A session owns its machine, its dynamic
// environment and its index, which starts with the basis's and the
// prelude's ordinal tables; Accept layers each new unit over the
// context instead of mutating a layer in place, and registers the
// unit's table in the index in O(1).
type Session struct {
	Machine *interp.Machine
	// Context is the accumulated static environment: basis, prelude,
	// then one layer per unit.
	Context *env.Env
	// Dyn is the accumulated dynamic environment.
	Dyn *dynenv.Env
	// Index resolves stubs against the basis, the prelude and every
	// unit accepted so far, to rehydrate bin files (§4).
	Index *pickle.Index
	// Units records the session's units in order; the first is the
	// shared prelude unit.
	Units []*Unit
}

// preludeIndex returns a new index holding the basis's and the
// prelude's ordinal tables.
func preludeIndex(prelude *Unit) *pickle.Index {
	ix := pickle.NewIndex()
	ix.Add(basis.BasisPid, basis.Stamped())
	ix.Add(prelude.StatPid, prelude.Owned)
	return ix
}

// sharedPrelude parses, elaborates, hashes and closure-compiles the
// prelude on first use: the "$prelude" unit, whose export layer Env
// sits over the primitive basis and is the context every session
// starts from. It is immutable once built, so any number of sessions,
// on any goroutines, share it. Stamps are permanent and derive from the
// prelude's intrinsic pid, so the objects every session resolves
// against are the ones user bins reference, whichever process built
// them. As in any compiled unit, each nested function's body is built
// on its first call, by whichever session makes it; its program's
// table lock makes concurrent first calls build it once.
var sharedPrelude = sync.OnceValues(func() (*Unit, error) {
	decs, errs := parser.Parse(PreludeSource)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	u, err := CompileDecs("$prelude", decs, basis.PrimEnv())
	if err != nil {
		return nil, err
	}
	// A session never encodes the prelude, so the pickle goes; its
	// ordinal table (Owned) stays.
	u.EnvPickle = nil
	return u, nil
})

// NewSession builds a session over the shared compiled prelude (§3:
// compile once, execute per dynamic environment): it executes the
// prelude's code on the session's own machine and dynamic environment,
// so every closure and exception the prelude creates belongs to this
// session alone.
func NewSession(stdout io.Writer) (*Session, error) {
	p, err := sharedPrelude()
	if err != nil {
		return nil, fmt.Errorf("bootstrapping prelude: %v", err)
	}
	s := &Session{
		Machine: interp.NewMachine(),
		Context: p.Env,
		Dyn:     dynenv.New(),
		Index:   preludeIndex(p),
		Units:   []*Unit{p},
	}
	if stdout != nil {
		s.Machine.Stdout = stdout
	}
	if err := Execute(s.Machine, p, s.Dyn, nil, nil, 0); err != nil {
		return nil, fmt.Errorf("bootstrapping prelude: %v", err)
	}
	return s, nil
}

// PreludeIndex returns a new index over the basis and the prelude
// alone, which the parallel scheduler's load resolvers read, and
// nothing writes, while the session's own Index grows.
func (s *Session) PreludeIndex() *pickle.Index { return preludeIndex(s.Units[0]) }

// Compile compiles a unit against the current context without
// executing it or extending the session.
func (s *Session) Compile(name, source string) (*Unit, error) {
	return Compile(name, source, s.Context)
}

// Run compiles a unit, executes it, and extends the session's static
// and dynamic environments with its exports.
func (s *Session) Run(name, source string) (*Unit, error) {
	u, err := Compile(name, source, s.Context)
	if err != nil {
		return nil, err
	}
	return s.runUnit(u)
}

// runUnit executes a compiled unit and extends the session with it.
func (s *Session) runUnit(u *Unit) (*Unit, error) {
	if err := Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		return nil, err
	}
	s.Accept(u)
	return u, nil
}

// Accept extends the session's static context with an already-executed
// unit (used by the IRM after loading bin files) and registers the
// unit's ordinal table in its index.
func (s *Session) Accept(u *Unit) {
	if u.Env.Parent() == nil || u.Env.Parent() != s.Context {
		// Layer the unit's exports over the current context even when
		// the unit was elaborated elsewhere (rehydrated from a bin
		// file): re-root it by copying into a fresh layer.
		layer := env.New(s.Context)
		u.Env.CopyInto(layer)
		s.Context = layer
	} else {
		s.Context = u.Env
	}
	s.Index.Add(u.StatPid, u.Owned)
	s.Units = append(s.Units, u)
}
