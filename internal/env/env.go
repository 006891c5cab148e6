// Package env implements static environments (§3–§4 of the paper):
// layered, ordered maps from names to the semantic objects of
// elaboration — value bindings, type constructors, structures,
// signatures, and functors.
//
// Environments are layered (a child extends a parent without copying it)
// and iterate deterministically in definition order, which the hasher
// and pickler rely on. The paper's "indexed" environments — stamp-keyed
// maps used by the rehydrater to find real objects for stubs — are built
// from these by internal/pickle.
//
// Concurrency: an Env is not safe for concurrent mutation, but a
// frozen Env — one that is no longer written — may be read from any
// number of goroutines. The parallel scheduler layers each unit's
// private env over frozen dependency envs on exactly this contract.
// Only a Define makes a namespace's map, so reading a frozen env never
// writes it, even in a namespace the env left empty.
package env

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/types"
)

// Namespace distinguishes the five SML namespaces.
type Namespace int

// Namespaces.
const (
	NSVal Namespace = iota
	NSTycon
	NSStr
	NSSig
	NSFct
)

func (ns Namespace) String() string {
	switch ns {
	case NSVal:
		return "value"
	case NSTycon:
		return "type"
	case NSStr:
		return "structure"
	case NSSig:
		return "signature"
	case NSFct:
		return "functor"
	}
	return "?"
}

// ValBind is the static information for a value identifier: its type
// scheme, its constructor status, and how its runtime value is located.
type ValBind struct {
	Scheme *types.Scheme
	Con    *types.DataCon // non-nil for (data or exception) constructors
	// Slot is the index of this binding's value within the runtime
	// record of the enclosing structure or unit export vector; -1 when
	// the binding has no runtime content (ordinary data constructors).
	Slot int
	// ExportPid designates the binding's value in the dynamic
	// environment once its unit has been compiled (zero for local and
	// in-progress bindings). Derived from the unit's static pid (§5).
	ExportPid pid.Pid
	// Prim names a built-in primitive; references compile to primops
	// rather than imports. The form "exn:Name" designates a basis
	// exception constructor whose tag lives in the runtime.
	Prim string
	// Overload, when non-empty, marks an overloaded primitive (such as
	// +): each use instantiates the scheme's single bound variable with
	// a fresh variable constrained to the listed tycons.
	Overload []*types.Tycon
}

// IsExnCon reports whether the binding is an exception constructor.
func (vb *ValBind) IsExnCon() bool { return vb.Con != nil && vb.Con.IsExn }

// StrBind is the static information for a structure identifier.
type StrBind struct {
	Str       *Structure
	Slot      int
	ExportPid pid.Pid
}

// SigBind binds a signature identifier. Signatures are kept as abstract
// syntax plus a closure environment over their free identifiers, and
// re-elaborated into a fresh template at every use; this is what lets
// `where type` and sharing constraints realize formal tycons by local
// mutation.
type SigBind struct {
	Name    string
	Def     ast.SigExp
	Closure *Env
}

// FctBind binds a functor identifier. Functors have no runtime content
// in this system: application re-elaborates the body (see
// internal/elab), which is what creates the paper's
// inter-implementation dependencies.
type FctBind struct {
	Fct *Functor
}

// Structure is an elaborated structure: a stamped environment of
// components plus the size of its runtime record.
type Structure struct {
	Stamp stamps.Stamp
	Env   *Env
	// NumSlots is the width of the runtime record holding the
	// structure's dynamic components (vals, exceptions, substructures).
	NumSlots int
}

// Signature is an elaborated signature template. Env holds the specs:
// formal tycons (types.KindFormal), value specs (schemes over formals,
// with Slot giving the coerced layout), and substructure specs
// (StrBind whose Structure is itself formal). Formals lists every
// flexible tycon of the template in creation order.
type Signature struct {
	Stamp   stamps.Stamp
	Name    string // for diagnostics; "" for anonymous sigs
	Env     *Env
	Formals []*types.Tycon
	// NumSlots is the runtime record width of a structure coerced to
	// this signature.
	NumSlots int
}

// Functor is an elaborated functor. The body, parameter signature, and
// result signature are kept as abstract syntax and re-elaborated at
// every application — the source of inter-implementation dependence
// that motivates cutoff recompilation. Closure holds the
// definition-time bindings for exactly the free identifiers of those
// three pieces of syntax.
type Functor struct {
	Stamp     stamps.Stamp
	Name      string
	ParamName string
	ParamSig  ast.SigExp
	ResultSig ast.SigExp // nil if unascribed
	Opaque    bool
	Body      ast.StrExp
	Closure   *Env
}

// Entry records one binding in definition order.
type Entry struct {
	NS   Namespace
	Name string
}

// Env is a layered, ordered static environment. A namespace's map is
// made by the first Define into it, so a scope that binds only values
// costs one map, not five; reading a nil map finds nothing, which is
// what an empty namespace must report.
type Env struct {
	parent *Env
	vals   map[string]*ValBind
	tycons map[string]*types.Tycon
	strs   map[string]*StrBind
	sigs   map[string]*SigBind
	fcts   map[string]*FctBind
	order  []Entry
}

// New returns an empty environment layered atop parent (nil for the
// root).
func New(parent *Env) *Env {
	return &Env{parent: parent}
}

// Grow makes room in e for n more bindings, so defining them does not
// regrow its order.
func (e *Env) Grow(n int) { e.order = slices.Grow(e.order, n) }

// Parent returns the environment this one extends.
func (e *Env) Parent() *Env { return e.parent }

// define binds name to v in the namespace map *m of e, making the map
// on first use; a re-definition keeps the name's first position in the
// order.
func define[T any](e *Env, m *map[string]T, ns Namespace, name string, v T) {
	if *m == nil {
		*m = map[string]T{}
	}
	if _, shadowed := (*m)[name]; !shadowed {
		e.order = append(e.order, Entry{ns, name})
	}
	(*m)[name] = v
}

// DefineVal binds a value identifier.
func (e *Env) DefineVal(name string, vb *ValBind) { define(e, &e.vals, NSVal, name, vb) }

// DefineTycon binds a type constructor.
func (e *Env) DefineTycon(name string, tc *types.Tycon) { define(e, &e.tycons, NSTycon, name, tc) }

// DefineStr binds a structure identifier.
func (e *Env) DefineStr(name string, sb *StrBind) { define(e, &e.strs, NSStr, name, sb) }

// DefineSig binds a signature identifier.
func (e *Env) DefineSig(name string, sb *SigBind) { define(e, &e.sigs, NSSig, name, sb) }

// DefineFct binds a functor identifier.
func (e *Env) DefineFct(name string, fb *FctBind) { define(e, &e.fcts, NSFct, name, fb) }

// LookupVal finds a value binding, searching outward through layers.
func (e *Env) LookupVal(name string) (*ValBind, bool) {
	for env := e; env != nil; env = env.parent {
		if vb, ok := env.vals[name]; ok {
			return vb, true
		}
	}
	return nil, false
}

// LookupTycon finds a type constructor.
func (e *Env) LookupTycon(name string) (*types.Tycon, bool) {
	for env := e; env != nil; env = env.parent {
		if tc, ok := env.tycons[name]; ok {
			return tc, true
		}
	}
	return nil, false
}

// LookupStr finds a structure binding.
func (e *Env) LookupStr(name string) (*StrBind, bool) {
	for env := e; env != nil; env = env.parent {
		if sb, ok := env.strs[name]; ok {
			return sb, true
		}
	}
	return nil, false
}

// LookupSig finds a signature binding.
func (e *Env) LookupSig(name string) (*SigBind, bool) {
	for env := e; env != nil; env = env.parent {
		if sb, ok := env.sigs[name]; ok {
			return sb, true
		}
	}
	return nil, false
}

// LookupFct finds a functor binding.
func (e *Env) LookupFct(name string) (*FctBind, bool) {
	for env := e; env != nil; env = env.parent {
		if fb, ok := env.fcts[name]; ok {
			return fb, true
		}
	}
	return nil, false
}

// LocalVal looks up without searching parents.
func (e *Env) LocalVal(name string) (*ValBind, bool) {
	vb, ok := e.vals[name]
	return vb, ok
}

// LocalTycon looks up without searching parents.
func (e *Env) LocalTycon(name string) (*types.Tycon, bool) {
	tc, ok := e.tycons[name]
	return tc, ok
}

// LocalStr looks up without searching parents.
func (e *Env) LocalStr(name string) (*StrBind, bool) {
	sb, ok := e.strs[name]
	return sb, ok
}

// LocalSig looks up without searching parents.
func (e *Env) LocalSig(name string) (*SigBind, bool) {
	sb, ok := e.sigs[name]
	return sb, ok
}

// LocalFct looks up without searching parents.
func (e *Env) LocalFct(name string) (*FctBind, bool) {
	fb, ok := e.fcts[name]
	return fb, ok
}

// Order returns the entries defined in this layer, in definition order
// with shadowed re-definitions collapsed to their first position.
func (e *Env) Order() []Entry { return e.order }

// Len reports the number of entries in this layer.
func (e *Env) Len() int { return len(e.order) }

// CopyInto re-defines every binding of this layer (not its parents) into
// dst, preserving order. Used by `open` and signature template copying.
func (e *Env) CopyInto(dst *Env) {
	for _, ent := range e.order {
		switch ent.NS {
		case NSVal:
			dst.DefineVal(ent.Name, e.vals[ent.Name])
		case NSTycon:
			dst.DefineTycon(ent.Name, e.tycons[ent.Name])
		case NSStr:
			dst.DefineStr(ent.Name, e.strs[ent.Name])
		case NSSig:
			dst.DefineSig(ent.Name, e.sigs[ent.Name])
		case NSFct:
			dst.DefineFct(ent.Name, e.fcts[ent.Name])
		}
	}
}

// String summarizes the layer for diagnostics.
func (e *Env) String() string {
	return fmt.Sprintf("env(%d bindings%s)", len(e.order), func() string {
		if e.parent != nil {
			return ", layered"
		}
		return ""
	}())
}
