package pickle_test

// The stamp-index walk: before stubs resolved by origin and ordinal, a
// rehydration index was filled by walking every stamped object
// reachable from the environments in scope. It stays here as the
// oracle for the ordinal tables that replaced it.

import (
	"io"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/pickle"
	"repro/internal/stamps"
	"repro/internal/types"
	"repro/internal/workload"
)

// walk collects the stamped objects (tycons, structures, functors)
// reachable from environments, each once, in visit order.
type walk struct {
	visited map[any]bool
	objs    []any
}

func newWalk() *walk { return &walk{visited: map[any]bool{}} }

// seen reports whether obj was visited, marking it visited.
func (w *walk) seen(obj any) bool {
	if w.visited[obj] {
		return true
	}
	w.visited[obj] = true
	return false
}

func (w *walk) env(e *env.Env) {
	if e == nil || w.seen(e) {
		return
	}
	for _, ent := range e.Order() {
		switch ent.NS {
		case env.NSVal:
			vb, _ := e.LocalVal(ent.Name)
			w.valBind(vb)
		case env.NSTycon:
			tc, _ := e.LocalTycon(ent.Name)
			w.tycon(tc)
		case env.NSStr:
			sb, _ := e.LocalStr(ent.Name)
			w.structure(sb.Str)
		case env.NSSig:
			sb, _ := e.LocalSig(ent.Name)
			w.env(sb.Closure)
		case env.NSFct:
			fb, _ := e.LocalFct(ent.Name)
			w.functor(fb.Fct)
		}
	}
}

func (w *walk) valBind(vb *env.ValBind) {
	if vb == nil || w.seen(vb) {
		return
	}
	w.scheme(vb.Scheme)
	if vb.Con != nil {
		w.dataCon(vb.Con)
	}
	for _, tc := range vb.Overload {
		w.tycon(tc)
	}
}

func (w *walk) tycon(tc *types.Tycon) {
	if tc == nil || w.seen(tc) {
		return
	}
	w.objs = append(w.objs, tc)
	if tc.Abbrev != nil {
		w.ty(tc.Abbrev.Body)
	}
	for _, dc := range tc.Cons {
		w.dataCon(dc)
	}
}

func (w *walk) dataCon(dc *types.DataCon) {
	if dc == nil || w.seen(dc) {
		return
	}
	w.scheme(dc.Scheme)
	w.tycon(dc.Tycon)
}

func (w *walk) scheme(s *types.Scheme) {
	if s == nil || w.seen(s) {
		return
	}
	w.ty(s.Body)
}

func (w *walk) ty(t types.Ty) {
	switch t := types.Prune(t).(type) {
	case *types.Con:
		w.tycon(t.Tycon)
		for _, a := range t.Args {
			w.ty(a)
		}
	case *types.Record:
		for _, a := range t.Types {
			w.ty(a)
		}
	case *types.Arrow:
		w.ty(t.From)
		w.ty(t.To)
	}
}

func (w *walk) structure(s *env.Structure) {
	if s == nil || w.seen(s) {
		return
	}
	w.objs = append(w.objs, s)
	w.env(s.Env)
}

func (w *walk) functor(f *env.Functor) {
	if f == nil || w.seen(f) {
		return
	}
	w.objs = append(w.objs, f)
	w.env(f.Closure)
}

func stampOf(obj any) stamps.Stamp {
	switch o := obj.(type) {
	case *types.Tycon:
		return o.Stamp
	case *env.Structure:
		return o.Stamp
	case *env.Functor:
		return o.Stamp
	}
	panic("not a stamped object")
}

// checkOwned holds u's ordinal table against the walk of its
// environment: every object the walk finds with u's origin sits at
// Owned[ordinal-1], the table lists nothing else, and every other
// object, a stub in u's bin, resolves in ix to itself.
func checkOwned(t *testing.T, ix *pickle.Index, u *compiler.Unit) {
	t.Helper()
	w := newWalk()
	w.env(u.Env)
	own := map[int64]bool{}
	for _, obj := range w.objs {
		s := stampOf(obj)
		if s.Origin == u.StatPid {
			own[s.Index] = true
			if got, ok := pickle.At(u.Owned, s.Index); !ok || got != obj {
				t.Errorf("%s: own object %s is not Owned[%d] (%d entries)", u.Name, s, s.Index-1, len(u.Owned))
			}
			continue
		}
		if got, ok := ix.Lookup(s); !ok || got != obj {
			t.Errorf("%s: stub %s resolves to %v (found %v)", u.Name, s, got, ok)
		}
	}
	if len(own) != len(u.Owned) {
		t.Errorf("%s: the walk finds %d own objects, Owned has %d", u.Name, len(own), len(u.Owned))
	}
}

// TestOwnedMatchesWalk: for every golden-corpus unit, compiled, loaded
// on an EnvCache miss and loaded on a hit, the unit's ordinal table and
// the session's index agree with the walk.
func TestOwnedMatchesWalk(t *testing.T) {
	corpus := workload.GoldenCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, pname := range names {
		p := corpus[pname]
		store := core.NewMemStore()
		cache := pickle.NewEnvCache(0)
		// Each build of the three counts every unit under its counter.
		for _, mode := range []struct{ name, counter string }{
			{"compiled", "build.compiled"},
			{"cache-miss", "cache.env_misses"},
			{"cache-hit", "cache.env_hits"},
		} {
			m := core.NewManager()
			m.Store = store
			m.EnvCache = cache
			m.Stdout = io.Discard
			s, err := m.Build(p.Files)
			if err != nil {
				t.Fatalf("%s %s: %v", pname, mode.name, err)
			}
			if got := m.Counters[mode.counter]; got != int64(len(p.Files)) {
				t.Fatalf("%s %s: %s = %d, want %d", pname, mode.name, mode.counter, got, len(p.Files))
			}
			for _, u := range s.Units {
				checkOwned(t, s.Index, u)
			}
		}
	}
}
