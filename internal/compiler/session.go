package compiler

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/ast"
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
type Session struct {
	Machine *interp.Machine
	// Context is the accumulated static environment: basis, prelude,
	// then one layer per unit.
	Context *env.Env
	// Dyn is the accumulated dynamic environment.
	Dyn *dynenv.Env
	// Index is the stamp index over everything loaded so far, used to
	// rehydrate bin files (§4).
	Index *pickle.Index
	// Units records the session's compiled units in order.
	Units []*Unit
}

// NewSession builds a session: the primitive basis plus the compiled
// and executed SML prelude, on the default (compiled-closure) engine.
func NewSession(stdout io.Writer) (*Session, error) {
	return NewSessionWith(stdout, interp.EngineClosure)
}

// NewSessionWith is NewSession on an explicit exec engine; the prelude
// itself runs on it, so every value in the session — basis included —
// comes from the selected backend.
func NewSessionWith(stdout io.Writer, engine interp.Engine) (*Session, error) {
	s := &Session{
		Machine: interp.NewMachine(),
		Context: basis.PrimEnv(),
		Dyn:     dynenv.New(),
		Index:   pickle.NewIndex(),
	}
	s.Machine.Engine = engine
	if stdout != nil {
		s.Machine.Stdout = stdout
	}
	s.Index.AddEnv(s.Context)
	decs, err := preludeDecs()
	var u *Unit
	if err == nil {
		u, err = CompileDecs("$prelude", decs, s.Context)
	}
	if err == nil {
		_, err = s.runUnit(u)
	}
	if err != nil {
		return nil, fmt.Errorf("bootstrapping prelude: %v", err)
	}
	return s, nil
}

// preludeDecs parses the prelude once per process: every session
// elaborates the same syntax, which elaboration only reads.
var preludeDecs = sync.OnceValues(func() ([]ast.Dec, error) {
	decs, errs := parser.Parse(PreludeSource)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return decs, nil
})

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
	if err := Execute(s.Machine, u, s.Dyn); err != nil {
		return nil, err
	}
	s.Accept(u)
	return u, nil
}

// Accept extends the session's static context and index with an
// already-executed unit (used by the IRM after loading bin files).
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
	if u.Frag != nil && u.Frag.Env() == u.Env {
		// Rehydrated units carry a pre-collected index fragment;
		// merging it is equivalent to (and cheaper than) re-walking
		// the environment.
		s.Index.AddFragment(u.Frag)
	} else {
		s.Index.AddEnv(u.Env)
	}
	s.Units = append(s.Units, u)
}
