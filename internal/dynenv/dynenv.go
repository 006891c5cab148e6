// Package dynenv implements dynamic environments (§3 of the paper):
// finite maps from persistent identifiers to runtime values. The
// dynamic environment is threaded through unit executions — each
// execution consumes the values of its import pids and binds its export
// pids — so no global mutable state links compiled units together.
//
// An Env does no accounting: the execute phase (compiler.Execute)
// counts its own dynenv.* traffic on the recorder it is handed.
//
// Concurrency: an Env is safe for concurrent Bind/Lookup from any
// number of goroutines — the map is split into shards, each behind its
// own RWMutex, indexed by the pid's leading hash byte. This is what
// lets the scheduler's exec workers bind independent units' exports
// into one session env in parallel. Len, Copy and Pids take every
// shard lock in turn and are consistent only once concurrent writers
// are quiesced.
package dynenv

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/interp"
	"repro/internal/pid"
)

// shardCount must be a power of two; 16 shards keeps the lock
// footprint small while making contention between exec workers (at
// most one per core) unlikely.
const shardCount = 16

type shard struct {
	mu sync.RWMutex
	m  map[pid.Pid]interp.Value
}

// Env is a dynamic environment. The zero value is not usable; call New.
type Env struct {
	shards *[shardCount]shard
}

// New returns an empty dynamic environment.
func New() *Env {
	var s [shardCount]shard
	for i := range s {
		s[i].m = map[pid.Pid]interp.Value{}
	}
	return &Env{shards: &s}
}

// shard picks the shard for p by its leading byte — pids are CRC-128
// hashes, so the low bits of any byte are uniformly distributed.
func (d *Env) shard(p pid.Pid) *shard {
	return &d.shards[p[0]&(shardCount-1)]
}

// Bind associates a pid with a value, replacing any previous binding.
func (d *Env) Bind(p pid.Pid, v interp.Value) {
	s := d.shard(p)
	s.mu.Lock()
	s.m[p] = v
	s.mu.Unlock()
}

// Lookup finds the value bound to p.
func (d *Env) Lookup(p pid.Pid) (interp.Value, bool) {
	s := d.shard(p)
	s.mu.RLock()
	v, ok := s.m[p]
	s.mu.RUnlock()
	return v, ok
}

// MustLookup finds the value bound to p or returns a linkage error.
func (d *Env) MustLookup(p pid.Pid) (interp.Value, error) {
	v, ok := d.Lookup(p)
	if !ok {
		return nil, fmt.Errorf("dynenv: no value bound to pid %s (missing import)", p.Short())
	}
	return v, nil
}

// Len reports the number of bindings.
func (d *Env) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Copy returns an independent copy (dynamic environments compose by
// copying plus Bind, mirroring the paper's functional composition).
func (d *Env) Copy() *Env {
	out := New()
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			out.shards[i].m[k] = v
		}
		s.mu.RUnlock()
	}
	return out
}

// Pids returns the bound pids in sorted order (deterministic, for tests
// and diagnostics).
func (d *Env) Pids() []pid.Pid {
	var out []pid.Pid
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for k := range s.m {
			out = append(out, k)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
