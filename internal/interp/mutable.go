package interp

// ReachesMutable reports whether v can reach a mutable cell — a ref or
// an array — through immutable structure: records, vectors, constructor
// arguments, exception payloads, and closure captures (the frames a
// closure's chain links). The parallel exec scheduler uses it to decide
// whether a unit's imports expose shared mutable state, in which case
// the unit's execution must be serialized in commit order (DESIGN.md
// §4j).
//
// The walk stops *at* a ref or array without reading through it
// (RefV.Cell and ArrV.Elems are never dereferenced), so it touches only
// memory that is immutable once a value has escaped its creating
// execution: record/vector spines, constructor cells, and the
// activation frames of completed calls. That makes the scan safe to
// run concurrently with executions that mutate cells — everything
// behind the first mutable boundary is exactly what they mutate, and
// exactly what the scan never visits.
//
// The verdict is stable: a value from which no mutable cell is
// reachable is hereditarily immutable, so no later mutation anywhere
// can change the answer. Callers may therefore memoize it, and a
// MutScanner shares it between scans node by node.
func ReachesMutable(v Value) bool {
	var s MutScanner
	return s.ReachesMutable(v)
}

// MutScanner answers ReachesMutable for many values, sharing work
// between scans: the parallel exec scheduler keeps one per build and
// scans each import through it. Imports of one build overlap heavily —
// every unit's imports reach the same prelude closures and structure
// frames — and a per-value scan re-walked that shared structure once
// per import.
//
// Soundness (DESIGN.md §4j): a scan that returns false visited only
// nodes from which no mutable cell is reachable, and that is a stable,
// hereditary property, so every node it entered stays in the visited
// set and later scans stop there. A scan that returns true stops at the
// first cell it meets and may have entered nodes it had not finished
// exploring — a node proven only "not yet a cell" — so it rolls back
// every node it added. The set is therefore only ever a set of
// hereditarily immutable nodes plus the nodes of the scan in progress,
// which is exactly the visited-set invariant a single scan relies on
// to cut shared structure and closure cycles.
//
// Concurrency: a MutScanner is single-goroutine state.
type MutScanner struct {
	seen  map[any]struct{}
	added []any // nodes the scan in progress entered into seen
}

// ReachesMutable reports whether v can reach a mutable cell (see the
// package function of the same name).
func (s *MutScanner) ReachesMutable(v Value) bool {
	reaches := s.value(v)
	if reaches {
		for _, n := range s.added {
			delete(s.seen, n)
		}
	}
	clear(s.added)
	s.added = s.added[:0]
	return reaches
}

// visited reports whether node is already in the visited set, entering
// it otherwise: pointer-identity nodes (constructor cells, closures,
// frames) are visited once, which both bounds shared-structure walks
// and terminates the cycles recursive closures create through their
// own frames.
func (s *MutScanner) visited(node any) bool {
	if _, ok := s.seen[node]; ok {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[any]struct{})
	}
	s.seen[node] = struct{}{}
	s.added = append(s.added, node)
	return false
}

func (s *MutScanner) value(v Value) bool {
	switch v := v.(type) {
	case *RefV:
		return v != nil
	case *ArrV:
		return v != nil
	case VecV:
		for _, e := range v {
			if s.value(e) {
				return true
			}
		}
	case *ConV:
		if v == nil || v.Arg == nil || s.visited(v) {
			return false
		}
		return s.value(v.Arg)
	case *ExnV:
		if v == nil || v.Arg == nil {
			return false
		}
		return s.value(v.Arg)
	case *CompiledClosure:
		if v == nil || s.visited(v) {
			return false
		}
		return s.frame(v.Env)
	default:
		// A record reaches what its fields reach; scalars, exception
		// tags and nil have no fields and are hereditarily immutable.
		fs, _ := Fields(v)
		for _, e := range fs {
			if s.value(e) {
				return true
			}
		}
	}
	return false
}

func (s *MutScanner) frame(f *Frame) bool {
	for ; f != nil; f = f.up {
		if s.visited(f) {
			return false
		}
		for _, v := range f.slots {
			if v != nil && s.value(v) {
				return true
			}
		}
	}
	return false
}
