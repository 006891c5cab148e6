package pickle

import (
	"container/list"
	"sync"

	"repro/internal/env"
	"repro/internal/pid"
)

// DefaultEnvCacheBudget bounds the shared EnvCache's estimated byte
// footprint.
const DefaultEnvCacheBudget = 64 << 20

// CachedEnv is one EnvCache entry: a rehydrated export environment,
// the exact bin-stream bytes it was decoded from, the number of
// objects decoded, and the environment's own stamped objects by
// ordinal (Unpickler.Owned), which a hit hands to the unit it reads.
// EnvBytes is the guard that keeps the cache sound: a hit is only
// served when the candidate bin's env segment is byte-identical, so a
// recompilation that kept the interface pid but changed anything else
// can never be answered with this entry.
type CachedEnv struct {
	Env      *env.Env
	EnvBytes []byte
	Objs     int // back-reference table size of the env segment
	Owned    []any
}

// cost estimates the entry's in-core footprint: the retained segment
// bytes plus a per-object charge for the rehydrated graph.
func (ce *CachedEnv) cost() int64 {
	return int64(len(ce.EnvBytes)) + 256 + 96*int64(ce.Objs)
}

// EnvCache is a process-wide, pid-keyed cache of rehydrated export
// environments (DESIGN.md §4f). Intrinsic pids are content hashes of
// the interface, so they are perfect content-addressed keys: every
// build, Manager, REPL turn, or bench iteration in the process that
// loads a bin whose interface is already rehydrated can share the one
// in-core copy instead of running an Unpickler again.
//
// Soundness rests on two properties. First, cached environments are
// immutable by contract: nothing in the system mutates an environment
// after rehydration (sessions copy exports into fresh layers, and
// elaboration instantiates dependency schemes instead of unifying
// them in place), and type identity is stamp-based, so an environment
// wired to one session's dependency objects elaborates identically in
// another. Second, a hit requires the candidate bin's env segment to
// be byte-identical to the cached entry's (CachedEnv.EnvBytes), so a
// cutoff recompile — same pid, different code — still decodes its own
// fresh code, and a colliding or forged pid cannot smuggle in a
// different interface.
//
// Concurrency: all methods are safe for concurrent use from any
// number of goroutines and Managers; a single mutex guards the map
// and LRU list. Entries are evicted least-recently-used once the
// estimated footprint exceeds the byte budget.
type EnvCache struct {
	mu      sync.Mutex
	budget  int64
	size    int64
	entries map[pid.Pid]*list.Element
	lru     *list.List // front = most recently used
}

// lruEntry is the list payload.
type lruEntry struct {
	key pid.Pid
	ce  *CachedEnv
}

// NewEnvCache returns a cache bounded by an estimated byte budget;
// budget <= 0 selects DefaultEnvCacheBudget. A nil *EnvCache is how
// a reader asks for no caching.
func NewEnvCache(budget int64) *EnvCache {
	if budget <= 0 {
		budget = DefaultEnvCacheBudget
	}
	return &EnvCache{
		budget:  budget,
		entries: map[pid.Pid]*list.Element{},
		lru:     list.New(),
	}
}

// shared is the process-wide cache Managers default to.
var shared = NewEnvCache(0)

// SharedEnvCache returns the process-wide cache: one rehydration per
// interface pid per process, shared by every Manager and session that
// does not install its own.
func SharedEnvCache() *EnvCache { return shared }

// Lookup returns the entry for p and marks it most recently used, or
// nil. The caller must check EnvBytes against the candidate stream
// before using the entry (binfile does).
func (c *EnvCache) Lookup(p pid.Pid) *CachedEnv {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[p]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*lruEntry).ce
}

// Insert stores an entry (last writer wins — entries for one pid are
// interchangeable by construction) and reports how many entries were
// evicted to fit the budget.
func (c *EnvCache) Insert(p pid.Pid, ce *CachedEnv) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[p]; ok {
		c.size -= el.Value.(*lruEntry).ce.cost()
		c.lru.Remove(el)
		delete(c.entries, p)
	}
	c.entries[p] = c.lru.PushFront(&lruEntry{key: p, ce: ce})
	c.size += ce.cost()
	for c.size > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		ent := el.Value.(*lruEntry)
		c.size -= ent.ce.cost()
		c.lru.Remove(el)
		delete(c.entries, ent.key)
		evicted++
	}
	return evicted
}

// Len reports the number of cached interfaces.
func (c *EnvCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
