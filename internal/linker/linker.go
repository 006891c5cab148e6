// Package linker implements type-safe linkage (§5, §7 of the paper).
//
// Every import of a compiled unit is a pid derived from the intrinsic
// (interface-hash) pid of the unit it was compiled against. The linker
// verifies, before any code runs, that each import is provided either
// by the base dynamic environment or by the export of another unit in
// the link set — so a stale bin file compiled against an interface
// that has since changed simply cannot be linked, the failure the
// paper's .h-file example shows classical linkers let through.
//
// Concurrency: Verify and Run mutate the shared dynamic environment
// and machine, so callers serialize them externally — the IRM invokes
// them only from the build's coordinator goroutine.
package linker

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/dynenv"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pid"
)

// Error is a linkage failure.
type Error struct {
	Unit string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("link %s: %s", e.Unit, e.Msg) }

// providerMap maps export pids to their providing units.
func providerMap(units []*compiler.Unit) map[pid.Pid]*compiler.Unit {
	providers := map[pid.Pid]*compiler.Unit{}
	for _, u := range units {
		for i := 0; i < u.NumSlots; i++ {
			providers[u.ExportPid(i)] = u
		}
	}
	return providers
}

// Verify checks that every import of every unit is provided by the
// base dynamic environment or by some unit in the set. It returns all
// failures, not just the first.
func Verify(units []*compiler.Unit, base *dynenv.Env) []error {
	providers := providerMap(units)
	var errs []error
	for _, u := range units {
		for _, im := range u.Imports {
			if _, ok := providers[im]; ok {
				continue
			}
			if base != nil {
				if _, ok := base.Lookup(im); ok {
					continue
				}
			}
			errs = append(errs, &Error{
				Unit: u.Name,
				Msg: fmt.Sprintf("import %s has no provider "+
					"(the unit it was compiled against has a different interface now)",
					im.Short()),
			})
		}
	}
	return errs
}

// Sort orders the units so every provider precedes its dependents
// (topological order over the pid dependency edges). Ties break by
// name for determinism. Cyclic imports are impossible by construction
// (a unit can only import previously compiled interfaces) but are
// reported rather than looping.
func Sort(units []*compiler.Unit) ([]*compiler.Unit, error) {
	providers := providerMap(units)

	deps := make(map[*compiler.Unit]map[*compiler.Unit]bool, len(units))
	indegree := make(map[*compiler.Unit]int, len(units))
	dependents := make(map[*compiler.Unit][]*compiler.Unit, len(units))
	for _, u := range units {
		deps[u] = map[*compiler.Unit]bool{}
	}
	for _, u := range units {
		for _, im := range u.Imports {
			if p, ok := providers[im]; ok && p != u && !deps[u][p] {
				deps[u][p] = true
				indegree[u]++
				dependents[p] = append(dependents[p], u)
			}
		}
	}

	ready := []*compiler.Unit{}
	for _, u := range units {
		if indegree[u] == 0 {
			ready = append(ready, u)
		}
	}
	sortByName(ready)

	var order []*compiler.Unit
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		var newly []*compiler.Unit
		for _, d := range dependents[u] {
			indegree[d]--
			if indegree[d] == 0 {
				newly = append(newly, d)
			}
		}
		sortByName(newly)
		ready = append(ready, newly...)
	}
	if len(order) != len(units) {
		var stuck []string
		for _, u := range units {
			if indegree[u] > 0 {
				stuck = append(stuck, u.Name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("link: cyclic imports among %v", stuck)
	}
	return order, nil
}

func sortByName(us []*compiler.Unit) {
	sort.Slice(us, func(i, j int) bool { return us[i].Name < us[j].Name })
}

// Run verifies, sorts, and executes a link set against the base
// dynamic environment, extending it with every unit's exports.
// Verification and sorting get phase spans under parent, every unit of
// the link set gets a unit span holding its "execute" phase tree (see
// compiler.Execute), and the link.*, exec.* and dynenv.* counters are
// recorded on rec; both may be nil. A link set that fails verification
// runs nothing and returns every failure, joined (errors.Join).
func Run(m *interp.Machine, units []*compiler.Unit, dyn *dynenv.Env,
	parent *obs.Span, rec obs.Recorder) error {

	obs.Count(rec, "link.runs", 1)
	obs.Count(rec, "link.units", int64(len(units)))
	vspan := parent.Child(obs.CatPhase, "verify")
	errs := Verify(units, dyn)
	vspan.End()
	if len(errs) > 0 {
		obs.Count(rec, "link.errors", int64(len(errs)))
		return errors.Join(errs...)
	}
	sspan := parent.Child(obs.CatPhase, "sort")
	order, err := Sort(units)
	sspan.End()
	if err != nil {
		obs.Count(rec, "link.errors", 1)
		return err
	}
	for _, u := range order {
		uspan := parent.Child(obs.CatUnit, u.Name)
		err := compiler.Execute(m, u, dyn, uspan, rec, 0)
		uspan.End()
		if err != nil {
			obs.Count(rec, "link.errors", 1)
			return err
		}
	}
	return nil
}
