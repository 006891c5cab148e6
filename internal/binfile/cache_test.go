package binfile

import (
	"bytes"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/pickle"
)

// TestEncodeFusedMatchesLegacy pins the single-pass rewrite's central
// claim at the unit level: deriving the bin stream from the canonical
// EnvPickle by stamp/pid patching produces exactly the bytes a fresh
// post-assignment traversal does.
func TestEncodeFusedMatchesLegacy(t *testing.T) {
	s := newSession(t)
	u, err := s.Run("lib", `
		val base = 40
		fun bump n = n + 2
		datatype color = Red | Green | Blue
		structure S = struct val x = base fun f y = bump y end
		signature SIG = sig val x : int end
	`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if u.EnvPickle == nil {
		t.Fatal("compiled unit carries no EnvPickle")
	}
	fused, err := Encode(u, nil)
	if err != nil {
		t.Fatalf("fused encode: %v", err)
	}

	legacy := &compiler.Unit{
		Name: u.Name, StatPid: u.StatPid, Env: u.Env, TermBytes: u.TermBytes,
		Imports: u.Imports, NumSlots: u.NumSlots, CodeBytes: u.CodeBytes,
	}
	slow, err := Encode(legacy, nil)
	if err != nil {
		t.Fatalf("legacy encode: %v", err)
	}
	if !bytes.Equal(fused, slow) {
		t.Fatalf("fused and legacy encodings differ: %d vs %d bytes", len(fused), len(slow))
	}
}

// TestReadCachedHitSharesEnv checks the EnvCache fast path: the second
// read of the same bin returns the cached environment object, skips
// the env decode, and still decodes the code segment fresh.
func TestReadCachedHitSharesEnv(t *testing.T) {
	s := newSession(t)
	u, err := s.Run("lib", `val x = 1 fun f y = y + x`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	cache := pickle.NewEnvCache(0)
	buf := obs.NewBuffer()

	s2 := newSession(t)
	u1, err := Read(data, s2.Index, cache, buf)
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	s3 := newSession(t)
	u2, err := Read(data, s3.Index, cache, buf)
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if u1.Env != u2.Env {
		t.Error("cache hit did not share the rehydrated environment")
	}
	if u1.Prog == u2.Prog || u1.Term() == u2.Term() {
		t.Error("code must be decoded fresh on every read, never cached")
	}
	if buf.Get("cache.env_misses") != 1 || buf.Get("cache.env_hits") != 1 {
		t.Errorf("counters: hits=%d misses=%d, want 1/1",
			buf.Get("cache.env_hits"), buf.Get("cache.env_misses"))
	}

	// The shared environment must still execute in the second session.
	if err := compiler.Execute(s3.Machine, u2, s3.Dyn, nil, nil, 0); err != nil {
		t.Fatalf("execute cached-env unit: %v", err)
	}
	s3.Accept(u2)
	if _, err := s3.Run("client", `val y = f 41`); err != nil {
		t.Fatalf("client against cached env: %v", err)
	}
}

// TestReadCachedRejectsForgedPid pins the byte guard: an entry cached
// under some pid must not be served for a bin whose env segment
// differs, even if the pid matches.
func TestReadCachedRejectsForgedPid(t *testing.T) {
	s := newSession(t)
	uA, err := s.Run("a", `val x = 1`)
	if err != nil {
		t.Fatalf("compile a: %v", err)
	}
	uB, err := s.Run("b", `val y = "hello"`)
	if err != nil {
		t.Fatalf("compile b: %v", err)
	}
	binA, _ := Encode(uA, nil)
	binB, _ := Encode(uB, nil)

	cache := pickle.NewEnvCache(0)
	s2 := newSession(t)
	if _, err := Read(binA, s2.Index, cache, nil); err != nil {
		t.Fatalf("read a: %v", err)
	}
	// Forge: poison the cache by re-keying A's entry under B's pid,
	// then read B. The byte guard must reject the poisoned entry and
	// decode B's own environment.
	ce := cache.Lookup(uA.StatPid)
	if ce == nil {
		t.Fatal("entry for a not cached")
	}
	cache.Insert(uB.StatPid, ce)
	s3 := newSession(t)
	u2, err := Read(binB, s3.Index, cache, nil)
	if err != nil {
		t.Fatalf("read b: %v", err)
	}
	if u2.Env == ce.Env {
		t.Fatal("byte guard failed: forged cache entry was served")
	}
	if _, ok := u2.Env.LocalVal("y"); !ok {
		t.Error("b's own environment not decoded")
	}
}

// TestEnvCacheEviction exercises the LRU byte budget, and a nil cache
// as the way to read without one.
func TestEnvCacheEviction(t *testing.T) {
	s := newSession(t)
	u, err := s.Run("lib", `val x = 1`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// A tiny budget admits one entry at a time (Insert never evicts
	// the entry it just added).
	cache := pickle.NewEnvCache(1)
	s2 := newSession(t)
	if _, err := Read(data, s2.Index, cache, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
	ce := cache.Lookup(u.StatPid)
	if ce == nil {
		t.Fatal("entry missing")
	}
	if n := cache.Insert(u.StatPid.Plus(1), ce); n != 1 {
		t.Errorf("second insert evicted %d entries, want 1", n)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries after eviction, want 1", cache.Len())
	}

	// A nil cache is no cache: the env decodes and no cache counter
	// moves.
	s3 := newSession(t)
	buf := obs.NewBuffer()
	u3, err := Read(data, s3.Index, nil, buf)
	if err != nil {
		t.Fatalf("uncached read: %v", err)
	}
	if _, ok := u3.Env.LocalVal("x"); !ok {
		t.Error("uncached read did not decode the environment")
	}
	for _, c := range []string{"cache.env_hits", "cache.env_misses", "cache.env_evictions"} {
		if n := buf.Get(c); n != 0 {
			t.Errorf("uncached read moved %s by %d", c, n)
		}
	}
}
