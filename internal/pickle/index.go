package pickle

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/stamps"
	"repro/internal/types"
)

// Index is the paper's *indexed context environment* (§4): a map from
// stamps to real in-core objects, used by the rehydrater to replace
// stubs. The IRM maintains one Index covering the basis and every unit
// loaded or compiled so far, extending it incrementally as units are
// added — avoiding the linear searches the paper identifies as its
// dominant dehydration cost.
//
// An Index is not safe for concurrent mutation. Nothing therefore
// shares a mutable Index: the index over basis and prelude is built
// once per process and frozen (internal/compiler), and every session
// and every rehydrating worker of the parallel build scheduler gets a
// private overlay (NewOverlay) whose lookups fall back to the frozen
// parent without ever writing to it.
type Index struct {
	byStamp map[stamps.Stamp]any
	visited map[any]bool
	// parent, when non-nil, is a frozen fallback index (see NewOverlay).
	// Lookups and registrations never mutate it.
	parent *Index
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byStamp: map[stamps.Stamp]any{}, visited: map[any]bool{}}
}

// NewOverlay returns an empty index whose lookups fall back to parent.
// The overlay owns all mutation: AddEnv and friends write only to the
// overlay's maps, so one frozen parent can safely serve any number of
// concurrent overlays as long as nothing mutates the parent itself.
func NewOverlay(parent *Index) *Index {
	ix := NewIndex()
	ix.parent = parent
	return ix
}

// Len reports the number of indexed objects (excluding the parent's).
func (ix *Index) Len() int { return len(ix.byStamp) }

// Lookup resolves a stamp to its object, consulting the parent chain
// on a local miss.
func (ix *Index) Lookup(s stamps.Stamp) (any, bool) {
	for p := ix; p != nil; p = p.parent {
		if obj, ok := p.byStamp[s]; ok {
			return obj, true
		}
	}
	return nil, false
}

// seen reports whether the traversal has visited obj, here or in any
// frozen parent.
func (ix *Index) seen(obj any) bool {
	for p := ix; p != nil; p = p.parent {
		if p.visited[obj] {
			return true
		}
	}
	return false
}

// LookupTycon resolves a stamp expected to be a tycon.
func (ix *Index) LookupTycon(s stamps.Stamp) (*types.Tycon, error) {
	obj, ok := ix.Lookup(s)
	if !ok {
		return nil, fmt.Errorf("rehydrate: no context object for stamp %s (tycon)", s)
	}
	tc, ok := obj.(*types.Tycon)
	if !ok {
		return nil, fmt.Errorf("rehydrate: stamp %s is a %T, expected tycon", s, obj)
	}
	return tc, nil
}

// LookupStructure resolves a stamp expected to be a structure.
func (ix *Index) LookupStructure(s stamps.Stamp) (*env.Structure, error) {
	obj, ok := ix.Lookup(s)
	if !ok {
		return nil, fmt.Errorf("rehydrate: no context object for stamp %s (structure)", s)
	}
	st, ok := obj.(*env.Structure)
	if !ok {
		return nil, fmt.Errorf("rehydrate: stamp %s is a %T, expected structure", s, obj)
	}
	return st, nil
}

// LookupFunctor resolves a stamp expected to be a functor.
func (ix *Index) LookupFunctor(s stamps.Stamp) (*env.Functor, error) {
	obj, ok := ix.Lookup(s)
	if !ok {
		return nil, fmt.Errorf("rehydrate: no context object for stamp %s (functor)", s)
	}
	f, ok := obj.(*env.Functor)
	if !ok {
		return nil, fmt.Errorf("rehydrate: stamp %s is a %T, expected functor", s, obj)
	}
	return f, nil
}

// add registers a stamped object, first-writer-wins (two loads of the
// same interface resolve to one object).
func (ix *Index) add(s stamps.Stamp, obj any) {
	if s.IsProvisional() {
		return
	}
	if _, ok := ix.Lookup(s); !ok {
		ix.byStamp[s] = obj
	}
}

// AddEnv walks every stamped object reachable from an environment layer
// and registers it. Safe to call repeatedly; already-visited objects
// are skipped.
func (ix *Index) AddEnv(e *env.Env) {
	if e == nil || ix.seen(e) {
		return
	}
	ix.visited[e] = true
	for _, ent := range e.Order() {
		switch ent.NS {
		case env.NSVal:
			vb, _ := e.LocalVal(ent.Name)
			ix.addValBind(vb)
		case env.NSTycon:
			tc, _ := e.LocalTycon(ent.Name)
			ix.AddTycon(tc)
		case env.NSStr:
			sb, _ := e.LocalStr(ent.Name)
			ix.AddStructure(sb.Str)
		case env.NSSig:
			sb, _ := e.LocalSig(ent.Name)
			ix.AddEnv(sb.Closure)
		case env.NSFct:
			fb, _ := e.LocalFct(ent.Name)
			ix.AddFunctor(fb.Fct)
		}
	}
}

func (ix *Index) addValBind(vb *env.ValBind) {
	if vb == nil || ix.seen(vb) {
		return
	}
	ix.visited[vb] = true
	ix.addScheme(vb.Scheme)
	if vb.Con != nil {
		ix.addDataCon(vb.Con)
	}
	for _, tc := range vb.Overload {
		ix.AddTycon(tc)
	}
}

// AddTycon registers a tycon and everything reachable from it.
func (ix *Index) AddTycon(tc *types.Tycon) {
	if tc == nil || ix.seen(tc) {
		return
	}
	ix.visited[tc] = true
	ix.add(tc.Stamp, tc)
	if tc.Abbrev != nil {
		ix.addTy(tc.Abbrev.Body)
	}
	for _, dc := range tc.Cons {
		ix.addDataCon(dc)
	}
}

func (ix *Index) addDataCon(dc *types.DataCon) {
	if dc == nil || ix.seen(dc) {
		return
	}
	ix.visited[dc] = true
	ix.addScheme(dc.Scheme)
	ix.AddTycon(dc.Tycon)
}

func (ix *Index) addScheme(s *types.Scheme) {
	if s == nil || ix.seen(s) {
		return
	}
	ix.visited[s] = true
	ix.addTy(s.Body)
}

func (ix *Index) addTy(t types.Ty) {
	switch t := types.Prune(t).(type) {
	case *types.Con:
		ix.AddTycon(t.Tycon)
		for _, a := range t.Args {
			ix.addTy(a)
		}
	case *types.Record:
		for _, a := range t.Types {
			ix.addTy(a)
		}
	case *types.Arrow:
		ix.addTy(t.From)
		ix.addTy(t.To)
	}
}

// AddStructure registers a structure and its components.
func (ix *Index) AddStructure(s *env.Structure) {
	if s == nil || ix.seen(s) {
		return
	}
	ix.visited[s] = true
	ix.add(s.Stamp, s)
	ix.AddEnv(s.Env)
}

// AddFunctor registers a functor and its closure.
func (ix *Index) AddFunctor(f *env.Functor) {
	if f == nil || ix.seen(f) {
		return
	}
	ix.visited[f] = true
	ix.add(f.Stamp, f)
	ix.AddEnv(f.Closure)
}
