// Package faultfs injects storage faults into the IRM's bin-file
// store, for the robustness suite that proves the paper's type-safe
// linkage guarantee survives an untrustworthy disk: every simulated
// crash, torn write, bit flip, or full disk must end in a correct
// rebuild — never a silently accepted corrupt entry, never a wrong
// link.
//
// Two layers are wrapped:
//
//   - FS implements core.FS over an inner filesystem and injects one
//     fault at the Nth "write point" (any durability-relevant mutating
//     operation: open-for-write, write, sync, close, rename, remove,
//     mkdir, directory sync). Enumerating failAt over every write
//     point of a protocol simulates a crash at each instant of it.
//   - Store wraps a core.Store and injects failures at the cache API
//     level (reported corruption, failing saves), for Manager-level
//     tests that need no disk at all.
//
// Concurrency: an FS serializes its own bookkeeping with an internal
// mutex, but fault plans are stepped by one test goroutine at a time;
// the harness does not run faulted builds in parallel.
package faultfs

import (
	"errors"
	"os"
	"sync"
	"syscall"

	"repro/internal/core"
)

// Mode selects the injected fault.
type Mode int

// Fault modes.
const (
	// Crash simulates process death at the chosen write point: that
	// operation and every later one fail, leaving the disk exactly as
	// it was the instant before.
	Crash Mode = iota
	// Torn persists only the first half of the buffer at the chosen
	// write point, then behaves like Crash — a partially flushed page.
	Torn
	// Flip silently flips one bit of the buffer at the chosen write
	// point and reports success — bit rot the writer never sees.
	Flip
	// NoSpace fails the chosen write point and every later
	// data-allocating operation with ENOSPC; reads and deletions still
	// work — a full disk, not a dead process.
	NoSpace
)

func (m Mode) String() string {
	switch m {
	case Crash:
		return "crash"
	case Torn:
		return "torn"
	case Flip:
		return "flip"
	case NoSpace:
		return "enospc"
	}
	return "?"
}

// ErrCrash is returned by every operation after a simulated crash.
var ErrCrash = errors.New("faultfs: simulated crash")

type opKind int

const (
	opOpen opKind = iota
	opWrite
	opSync
	opClose
	opRename
	opRemove
	opMkdir
	opSyncDir
)

// allocates reports whether an operation needs fresh disk space, the
// ones a full disk refuses.
func allocates(kind opKind) bool {
	switch kind {
	case opOpen, opWrite, opSync, opMkdir:
		return true
	}
	return false
}

// FS is a fault-injecting core.FS.
type FS struct {
	inner core.FS

	mu      sync.Mutex
	mode    Mode
	failAt  int // write-point index to fault; -1 = never
	points  int // write points seen since Plan
	crashed bool
	full    bool
}

// New wraps inner with fault injection disarmed.
func New(inner core.FS) *FS {
	return &FS{inner: inner, failAt: -1}
}

// Plan arms one fault: mode is injected at the failAt-th write point
// (counted from 0; -1 disarms). Counters and sticky state reset.
func (f *FS) Plan(mode Mode, failAt int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mode, f.failAt = mode, failAt
	f.points, f.crashed, f.full = 0, false, false
}

// WritePoints reports how many write points have executed since the
// last Plan — run a protocol once disarmed to learn how many crash
// instants it has.
func (f *FS) WritePoints() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.points
}

var errTorn = errors.New("faultfs: torn write marker")

// enter registers one write point and decides the operation's fate.
// It returns the (possibly substituted) write buffer and an error:
// nil to proceed, errTorn to write the returned prefix and then crash,
// anything else to fail the operation outright.
func (f *FS) enter(kind opKind, p []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrash
	}
	if f.full && allocates(kind) {
		return nil, syscall.ENOSPC
	}
	i := f.points
	f.points++
	if i != f.failAt {
		return p, nil
	}
	switch f.mode {
	case Crash:
		f.crashed = true
		return nil, ErrCrash
	case Torn:
		f.crashed = true
		if kind == opWrite && len(p) > 1 {
			return p[:len(p)/2], errTorn
		}
		return nil, ErrCrash
	case Flip:
		if kind == opWrite && len(p) > 0 {
			q := append([]byte(nil), p...)
			q[len(q)/2] ^= 0x10
			return q, nil
		}
		return p, nil
	case NoSpace:
		f.full = true
		if allocates(kind) {
			return nil, syscall.ENOSPC
		}
		return p, nil
	}
	return p, nil
}

// dead reports whether the simulated process is dead (reads fail too).
func (f *FS) dead() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrash
	}
	return nil
}

// MkdirAll implements core.FS.
func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	if _, err := f.enter(opMkdir, nil); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir, perm)
}

// ReadFile implements core.FS.
func (f *FS) ReadFile(path string) ([]byte, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// Stat implements core.FS.
func (f *FS) Stat(path string) (os.FileInfo, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.Stat(path)
}

// ReadDir implements core.FS.
func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := f.dead(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// OpenFile implements core.FS.
func (f *FS) OpenFile(path string, flag int, perm os.FileMode) (core.FileHandle, error) {
	if _, err := f.enter(opOpen, nil); err != nil {
		return nil, err
	}
	h, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &handle{fs: f, inner: h}, nil
}

// Rename implements core.FS.
func (f *FS) Rename(oldPath, newPath string) error {
	if _, err := f.enter(opRename, nil); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

// Remove implements core.FS.
func (f *FS) Remove(path string) error {
	if _, err := f.enter(opRemove, nil); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// SyncDir implements core.FS.
func (f *FS) SyncDir(dir string) error {
	if _, err := f.enter(opSyncDir, nil); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// handle wraps a file so writes, syncs, and closes are write points.
// When the simulated process dies mid-file, the real descriptor is
// closed quietly (a real crash reclaims descriptors too).
type handle struct {
	fs    *FS
	inner core.FileHandle
}

func (h *handle) Write(p []byte) (int, error) {
	q, err := h.fs.enter(opWrite, p)
	if err == errTorn {
		h.inner.Write(q) // the half that reached the platter
		h.inner.Close()
		return 0, ErrCrash
	}
	if err != nil {
		h.inner.Close()
		return 0, err
	}
	n, werr := h.inner.Write(q)
	if n == len(q) {
		// Report the caller's length even when a flip substituted the
		// buffer — the corruption must stay invisible to the writer.
		n = len(p)
	}
	return n, werr
}

func (h *handle) Sync() error {
	if _, err := h.fs.enter(opSync, nil); err != nil {
		h.inner.Close()
		return err
	}
	return h.inner.Sync()
}

func (h *handle) Close() error {
	if _, err := h.fs.enter(opClose, nil); err != nil {
		h.inner.Close()
		return err
	}
	return h.inner.Close()
}

// ---------------------------------------------------------------------
// Store-level injection
// ---------------------------------------------------------------------

// Store wraps a core.Store and injects faults at the cache API level.
type Store struct {
	Inner core.Store
	// Corrupt lists unit names whose next Load reports a
	// *core.CorruptError; each fires once, mirroring quarantine
	// semantics (a corrupt file is moved aside, the retry misses).
	Corrupt map[string]bool
	// SaveErr, when non-nil, fails every Save.
	SaveErr error

	mu sync.Mutex
}

// Load implements core.Store.
func (s *Store) Load(name string) (*core.Entry, error) {
	s.mu.Lock()
	if s.Corrupt[name] {
		delete(s.Corrupt, name)
		s.mu.Unlock()
		return nil, &core.CorruptError{Name: name, Err: errors.New("faultfs: injected corruption")}
	}
	s.mu.Unlock()
	return s.Inner.Load(name)
}

// Save implements core.Store.
func (s *Store) Save(name string, e *core.Entry) error {
	s.mu.Lock()
	err := s.SaveErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Inner.Save(name, e)
}
