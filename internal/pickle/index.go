package pickle

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/types"
)

// Resolver finds the real in-core object a stub names: the stamped
// object of origin s.Origin whose ordinal is s.Index. Index is one
// resolver; the parallel build scheduler (internal/core) has another,
// over the basis, the prelude and the loading unit's ancestors.
type Resolver interface {
	Lookup(s stamps.Stamp) (any, bool)
}

// Index is the paper's *indexed context environment* (§4): the map a
// rehydrater resolves stubs in. A permanent stamp is {origin pid,
// ordinal}, and the ordinal is the object's position in its owning
// unit's canonical traversal (§5), so the index maps each origin pid
// to that unit's objects by ordinal (compiler.Unit.Owned, and
// basis.Stamped for the primitive basis): registering a unit is one
// map insert, and a lookup is one map probe and a bounds check.
//
// An Index is not safe for concurrent mutation. One that nothing
// writes any more may be read by any number of goroutines: the parallel
// scheduler's index over the basis and the prelude is built once per
// build and only read by its workers, while the session registers the
// build's units in its own Index.
type Index struct {
	tables map[pid.Pid][]any
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{tables: map[pid.Pid][]any{}}
}

// Add registers the stamped objects of origin by ordinal: owned[i-1]
// is the object stamped {origin, i}. The first registration of an
// origin wins (two loads of one interface resolve to one object).
func (ix *Index) Add(origin pid.Pid, owned []any) {
	if _, ok := ix.tables[origin]; !ok {
		ix.tables[origin] = owned
	}
}

// Lookup resolves a stamp to its object.
func (ix *Index) Lookup(s stamps.Stamp) (any, bool) {
	return At(ix.tables[s.Origin], s.Index)
}

// At returns owned[ordinal-1]: the object of a stamp with this ordinal
// in the table of its origin. An ordinal outside the table reports
// false.
func At(owned []any, ordinal int64) (any, bool) {
	if ordinal < 1 || ordinal > int64(len(owned)) {
		return nil, false
	}
	return owned[ordinal-1], true
}

// stampOf returns the stamp of a stamped object: a tycon, structure or
// functor. Any other value reports false.
func stampOf(obj any) (stamps.Stamp, bool) {
	switch o := obj.(type) {
	case *types.Tycon:
		return o.Stamp, true
	case *env.Structure:
		return o.Stamp, true
	case *env.Functor:
		return o.Stamp, true
	}
	return stamps.Stamp{}, false
}

// lookup resolves a stub's stamp in r and checks the object's kind. A
// nil resolver resolves nothing.
func lookup[T any](r Resolver, s stamps.Stamp, kind string) (T, error) {
	var obj any
	ok := false
	if r != nil {
		obj, ok = r.Lookup(s)
	}
	if !ok {
		var zero T
		return zero, fmt.Errorf("rehydrate: no context object for stamp %s (%s)", s, kind)
	}
	t, ok := obj.(T)
	if !ok {
		return t, fmt.Errorf("rehydrate: stamp %s is a %T, expected %s", s, obj, kind)
	}
	return t, nil
}
