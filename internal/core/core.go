// Package core implements the IRM — the Incremental Recompilation
// Manager of §6 and §9 of the paper: a compilation manager layered on
// the Visible Compiler primitives.
//
// The IRM maintains two levels of dependency information:
//
//  1. a file level — a source file whose contents are unchanged is not
//     even re-parsed (the paper gates this with timestamps; we use a
//     content hash, which subsumes them);
//  2. an interface level — a unit is recompiled only if its source
//     changed or the intrinsic static pid of some unit it imports
//     changed. Because the static pid is a hash of the exported
//     interface, an implementation-only edit upstream leaves dependents
//     untouched: *cutoff* recompilation.
//
// For comparison benches the manager can also run a classical
// timestamp ("make") policy, where any recompilation of a dependency —
// interface-preserving or not — cascades to the whole downstream cone.
//
// Concurrency: one Manager runs one Build at a time, but
// inside a Build units are compiled on a parallel worker pool (see
// scheduler.go and DESIGN.md §4e); Manager.Jobs sets the width. The
// Store is only ever called from the build's coordinator goroutine,
// yet implementations must additionally tolerate concurrent Managers
// (see the Store interface contract). Distinct Managers may run
// concurrently as long as they do not share an obs.Collector.
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/compiler"
	"repro/internal/depend"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
	"repro/internal/prof"
)

// Policy selects the recompilation rule.
type Policy int

// Policies.
const (
	// PolicyCutoff recompiles a unit only when its source or an
	// imported *interface* changed (the paper's system).
	PolicyCutoff Policy = iota
	// PolicyTimestamp recompiles a unit when its source changed or any
	// dependency was recompiled — classical make.
	PolicyTimestamp
)

func (p Policy) String() string {
	if p == PolicyTimestamp {
		return "timestamp"
	}
	return "cutoff"
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "cutoff":
		return PolicyCutoff, nil
	case "timestamp":
		return PolicyTimestamp, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want cutoff or timestamp)", name)
}

// File is one source file of a group. Path, when non-empty, is the
// on-disk location the source was read from — the watch loop polls it
// for changes; in-memory files (tests, benches) leave it empty.
type File struct {
	Name   string
	Source string
	Path   string
}

// Entry is the cached result of compiling one unit.
type Entry struct {
	SrcHash  pid.Pid
	StatPid  pid.Pid
	DepNames []string
	DepPids  []pid.Pid
	Defs     []string
	Free     []string
	Bin      []byte
}

// Store is the bin-file cache.
//
// Load distinguishes three outcomes: (entry, nil) is a hit, (nil, nil)
// means no entry exists for the unit, and (nil, err) means an entry
// exists but could not be trusted — a *CorruptError when it failed
// validation, any other error for I/O trouble. The Manager treats
// every error as a cache miss and recompiles; corruption is never
// silently linked.
//
// Thread safety: a single Build calls Load and Save from one goroutine
// only (the scheduler's workers never touch the store), but multiple
// Managers — goroutines in one process, or separate processes — may
// share a store, so implementations must make Load and Save safe for
// concurrent use. DirStore gets this from atomic single-file renames
// plus the build-level Locker protocol; MemStore uses a mutex.
type Store interface {
	Load(name string) (*Entry, error)
	Save(name string, e *Entry) error
}

// Locker is implemented by stores that serialize whole builds — the
// Manager brackets Build with Lock when available, so concurrent
// managers (in-process or cross-process) cannot interleave writes.
type Locker interface {
	// Lock blocks until the store is held, returning the release
	// function, or fails after the store's lock timeout.
	Lock() (release func(), err error)
}

// Unlocked returns a view of s without its Locker, for callers that
// already hold the store lock across several builds: a watch session
// acquires the lock once for its whole lifetime (the heartbeat in
// lock.go keeps it fresh through quiet periods) and hands the Manager
// this view so per-build re-acquisition cannot self-deadlock.
func Unlocked(s Store) Store { return unlocked{s} }

type unlocked struct{ Store }

// CorruptError reports a cache entry that exists but failed
// validation: torn write, bit rot, truncation, or a forged trailer.
type CorruptError struct {
	Name        string // unit name
	Path        string // on-disk location, if any
	Quarantined string // where the corpse was preserved, "" if dropped
	Err         error  // the validation failure
}

func (e *CorruptError) Error() string {
	if e.Quarantined != "" {
		return fmt.Sprintf("irm: corrupt entry for %s (quarantined to %s): %v",
			e.Name, e.Quarantined, e.Err)
	}
	return fmt.Sprintf("irm: corrupt entry for %s: %v", e.Name, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Clone returns a deep copy of the entry: mutating the copy (or its
// slices) cannot reach the original.
func (e *Entry) Clone() *Entry {
	if e == nil {
		return nil
	}
	c := *e
	c.DepNames = append([]string(nil), e.DepNames...)
	c.DepPids = append([]pid.Pid(nil), e.DepPids...)
	c.Defs = append([]string(nil), e.Defs...)
	c.Free = append([]string(nil), e.Free...)
	c.Bin = append([]byte(nil), e.Bin...)
	return &c
}

// MemStore is an in-memory store (used by tests and benches). It is
// safe for concurrent use: tests routinely share one MemStore between
// goroutine-per-Manager builds, which the Store contract requires to
// work.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]*Entry{}} }

// Load implements Store. The returned entry is a defensive copy: a
// caller mutating it (or its Bin slice) cannot corrupt the cache in
// place.
func (s *MemStore) Load(name string) (*Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name].Clone(), nil
}

// Save implements Store. The entry is copied on the way in, so later
// caller-side mutation cannot reach the cache either.
func (s *MemStore) Save(name string, e *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = e.Clone()
	return nil
}

// Len reports the number of cached units.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Stats counts what a build did. It is derived, after every Build,
// from the telemetry counters of that build (see statsFromCounters) —
// the counters are the single source of truth, Stats a fixed view.
// It holds counts only, so it is identical at any Jobs value; phase
// timings live in the time.* counters the phase spans feed.
type Stats struct {
	Units    int // units in the group
	Parsed   int // files parsed (source changed or no cache)
	Compiled int // units elaborated and code-generated
	Loaded   int // units rehydrated from bin files
	Cutoffs  int // recompilations whose interface hash was unchanged
	Executed int // units executed

	Corrupt    int // cache entries detected as corrupt (quarantined)
	Recovered  int // units recompiled because their entry was corrupt
	SaveErrors int // bin saves that failed (the build continues uncached)
	HashErrors int // interface-hash measurements that failed (non-fatal)
}

// statsFromCounters projects one build's counter deltas onto the
// classic Stats view. Counter names are the registry of DESIGN.md
// §4d; keys the projection does not know (store.*, lock.*,
// binfile.*) are simply not part of Stats, so nothing is ever
// double-counted between the two surfaces.
func statsFromCounters(c map[string]int64) Stats {
	return Stats{
		Units:      int(c["build.units"]),
		Parsed:     int(c["build.parsed"]),
		Compiled:   int(c["build.compiled"]),
		Loaded:     int(c["build.loaded"]),
		Cutoffs:    int(c["build.cutoffs"]),
		Executed:   int(c["build.executed"]),
		Corrupt:    int(c["cache.corrupt"]),
		Recovered:  int(c["cache.recovered"]),
		SaveErrors: int(c["cache.save_errors"]),
		HashErrors: int(c["build.hash_errors"]),
	}
}

// Manager is the compilation manager.
type Manager struct {
	Policy Policy
	Store  Store
	// Jobs is the scheduler's worker-pool width: how many units may be
	// compiled (or rehydrated) concurrently. Zero or negative means
	// runtime.GOMAXPROCS(0). Whatever the value, a build's outputs are
	// deterministic: identical bin files, Stats, and explain records
	// (see DESIGN.md §4e).
	Jobs int
	// Stdout receives program output during unit execution.
	Stdout io.Writer
	// Log, when non-nil, receives one line per unit describing the
	// action taken.
	Log io.Writer
	// Obs, when non-nil, receives the build's spans, counters, and
	// explain records; attach the same collector to the DirStore (its
	// Obs field) to fold store and lock telemetry into one stream.
	// When nil, each Build collects into a private collector, so
	// Stats, Counters, and Explains are populated either way.
	// Overlapping Builds must not share one collector (their per-build
	// counter deltas would mix); concurrent managers get one each.
	Obs *obs.Collector
	// MaxSteps, when non-zero, bounds the session's evaluation steps:
	// each unit execution is individually limited to MaxSteps (its
	// machine fork crashes with "step budget exceeded" past it), and
	// the cumulative session total is enforced at commit — the build
	// fails on the unit whose execution pushes the total over, the
	// same unit a sequential run would have died inside (DESIGN.md
	// §4j). A step is one function application.
	MaxSteps uint64
	// ProfilePeriod, when non-zero, enables the SML-level execution
	// profiler (DESIGN.md §4k) for this manager's builds: every unit
	// execution is step-tick sampled with this period and the merged,
	// symbolized profile lands in Prof. Profiling perturbs no build
	// output — bins, pids, Stats, explain records, and all non-prof.*
	// counters are byte-identical with it on or off.
	ProfilePeriod uint64
	// EnvCache, when non-nil, overrides the process-wide rehydration
	// cache (pickle.SharedEnvCache) for this manager's bin reads; a
	// private cache isolates a measurement. The cache affects only
	// rehydration cost, never outputs: hits require byte-identical
	// environment segments.
	EnvCache *pickle.EnvCache

	// Stats describes the most recent Build.
	Stats Stats
	// Counters holds the most recent Build's raw counter deltas.
	Counters map[string]int64
	// Explains is the most recent Build's rebuild-decision log:
	// exactly one record per unit the build reached.
	Explains []obs.Explain
	// UnitTimings records, for the most recent Build, the wall time of
	// every committed unit in commit order — the per-unit series the
	// build-history ledger persists and `irm top` aggregates.
	UnitTimings []obs.UnitTiming
	// Prof is the most recent Build's merged execution profile (nil
	// unless ProfilePeriod was set). Its contents are deterministic:
	// identical at any Jobs value and across daemon/local runs.
	Prof *prof.Profile

	// profB accumulates the in-flight build's unit profiles; only the
	// committer touches it.
	profB *prof.Builder
}

// NewManager returns a cutoff-policy manager over a fresh memory store.
func NewManager() *Manager {
	return &Manager{Policy: PolicyCutoff, Store: NewMemStore(), Stdout: io.Discard}
}

func (m *Manager) logf(format string, args ...any) {
	if m.Log != nil {
		fmt.Fprintf(m.Log, format+"\n", args...)
	}
}

// envCache resolves the rehydration cache for this manager's builds.
func (m *Manager) envCache() *pickle.EnvCache {
	if m.EnvCache != nil {
		return m.EnvCache
	}
	return pickle.SharedEnvCache()
}

// Build compiles (or reloads) every file of the group in dependency
// order, in a fresh session, and returns the session with every unit's
// exports in scope and executed. Build is incremental across calls
// through the Store: unchanged units whose imported interfaces are
// unchanged are rehydrated from their cached bins instead of being
// recompiled.
func (m *Manager) Build(files []File) (*compiler.Session, error) {
	return m.BuildUnder(nil, files)
}

// BuildUnder is Build with the build's root span nested under parent —
// the watch loop parents every incremental build under its
// per-iteration `watch` span, so a long-lived session exports one
// coherent trace tree instead of disconnected roots. parent must
// belong to m.Obs (or be nil, which is a plain Build). Everything
// else — outputs, Stats, explain records — is identical to Build.
func (m *Manager) BuildUnder(parent *obs.Span, files []File) (*compiler.Session, error) {
	// All accounting goes through one collector; Stats, Counters, and
	// Explains are projected from it when Build returns (on every
	// path, including errors).
	col := m.Obs
	if col == nil {
		col = obs.New()
	}
	gen := col.BeginBuild()
	m.UnitTimings = nil
	var bspan *obs.Span
	if parent != nil {
		bspan = parent.Child(obs.CatBuild, "build")
	} else {
		bspan = col.StartSpan(obs.CatBuild, "build")
	}
	bspan.Arg("policy", m.Policy.String()).Arg("units", len(files))
	defer bspan.End()
	before := col.Counters()
	defer func() {
		m.Counters = col.Since(before)
		m.Stats = statsFromCounters(m.Counters)
		m.Explains = col.BuildExplains(gen)
	}()
	col.Add("build.units", int64(len(files)))

	// Serialize whole builds when the store supports locking: two
	// managers over one store (goroutines or processes) must not
	// interleave their writes.
	if l, ok := m.Store.(Locker); ok {
		lspan := bspan.Child(obs.CatPhase, "lock")
		release, err := l.Lock()
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("irm: acquiring store lock: %v", err)
		}
		defer release()
	}

	sspan := bspan.Child(obs.CatPhase, "session")
	session, err := compiler.NewSession(m.Stdout)
	sspan.End()
	if err != nil {
		return nil, err
	}
	// Observe the execute side too: the machine reports interp.*
	// counters into the same collector. Attached after the prelude
	// bootstrap, so the deltas cover exactly this build's units.
	session.Machine.Obs = col
	// Attached after the prelude bootstrap, like the recorders: the
	// budget covers the build's units, not the prelude.
	session.Machine.MaxSteps = m.MaxSteps
	// Profiling, too, starts after the bootstrap: the prelude's own
	// execution is never sampled (it ran before StartProfile), but its
	// functions are symbolized here so prelude frames inside unit
	// executions attribute to "$prelude" bindings.
	m.Prof, m.profB = nil, nil
	if m.ProfilePeriod > 0 {
		session.Machine.StartProfile(m.ProfilePeriod)
		m.profB = prof.NewBuilder(session.Machine.ProfilePeriod())
		for _, u := range session.Units {
			m.profB.AddUnit(u, compiler.PreludeSource)
		}
		defer func() {
			m.Prof = m.profB.Finish()
			m.profB = nil
		}()
	}

	// Phase 1: per-file dependency info, re-parsing only changed files.
	scan := bspan.Child(obs.CatPhase, "scan")
	infos := make([]*depend.Info, len(files))
	entries := make(map[string]*Entry, len(files))
	srcHashes := make(map[string]pid.Pid, len(files))
	corrupt := make(map[string]bool)
	for i, f := range files {
		h := pid.HashString(f.Source)
		srcHashes[f.Name] = h
		e, lerr := m.Store.Load(f.Name)
		if lerr != nil {
			// A corrupt (or unreadable) entry is a cache miss, never a
			// fatal error and never linked: the unit recompiles below.
			var ce *CorruptError
			if errors.As(lerr, &ce) {
				col.Add("cache.corrupt", 1)
				corrupt[f.Name] = true
			} else {
				col.Add("cache.load_errors", 1)
			}
			m.logf("[%s] %s: cache entry unusable (%v); will recompile",
				m.Policy, f.Name, lerr)
		}
		if e != nil {
			col.Add("cache.hits", 1)
			entries[f.Name] = e
			if e.SrcHash == h {
				// Unchanged source: dependency info comes from the cache
				// without re-parsing.
				infos[i] = &depend.Info{Name: f.Name, Defs: e.Defs, Free: e.Free}
				continue
			}
		} else if lerr == nil {
			col.Add("cache.misses", 1)
		}
		pspan := scan.Child(obs.CatPhase, "parse").Arg("unit", f.Name)
		info, err := depend.Analyze(f.Name, f.Source)
		pspan.End()
		if err != nil {
			scan.End()
			return nil, err
		}
		col.Add("build.parsed", 1)
		infos[i] = info
	}
	scan.End()

	// Phase 2: topological order over the induced dependency DAG.
	ospan := bspan.Child(obs.CatPhase, "order")
	order, err := depend.TopoSort(infos)
	ospan.End()
	if err != nil {
		return nil, err
	}
	sources := make(map[string]string, len(files))
	for _, f := range files {
		sources[f.Name] = f.Source
	}
	deps := depend.Graph(infos)

	// Phase 3: compile or load on the parallel DAG scheduler
	// (scheduler.go). Workers run the per-unit-deterministic pipeline
	// concurrently; a single committer executes, saves, and files
	// explain records in topological order, so every unit still files
	// exactly one explain record before its turn ends — also on fatal
	// errors — and all outputs are independent of Jobs.
	if err := m.schedule(col, gen, bspan, session, order, deps,
		sources, srcHashes, entries, corrupt); err != nil {
		return nil, err
	}
	return session, nil
}

// depChanges lists the imports whose interface pids differ between a
// cached entry and the current build — the concrete dependencies that
// defeated reuse under the cutoff rule.
func depChanges(entry *Entry, depNames []string, depPids []pid.Pid) []obs.DepChange {
	old := make(map[string]pid.Pid, len(entry.DepNames))
	for i, n := range entry.DepNames {
		if i < len(entry.DepPids) {
			old[n] = entry.DepPids[i]
		}
	}
	var out []obs.DepChange
	cur := make(map[string]bool, len(depNames))
	for i, n := range depNames {
		cur[n] = true
		op, ok := old[n]
		switch {
		case !ok:
			out = append(out, obs.DepChange{Name: n, NewPid: depPids[i].String()})
		case op != depPids[i]:
			out = append(out, obs.DepChange{
				Name: n, OldPid: op.String(), NewPid: depPids[i].String()})
		}
	}
	for _, n := range entry.DepNames {
		if !cur[n] {
			out = append(out, obs.DepChange{Name: n, OldPid: old[n].String()})
		}
	}
	return out
}

func pidsEqual(a, b []pid.Pid) bool { return slices.Equal(a, b) }

func namesEqual(a, b []string) bool { return slices.Equal(a, b) }
