package main

import (
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The traced run wraps the store and its filesystem in these timing
// decorators, so store and I/O cost is measured at the layer boundary
// without any timer inside the program.

// tally accumulates calls to one operation and the time they took.
type tally struct{ ns, calls atomic.Int64 }

func (t *tally) since(t0 time.Time) {
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

func (t *tally) ms() float64 { return float64(t.ns.Load()) / 1e6 }

// ioStats is one build's decorator timings. The atomics matter only for
// the lock heartbeat, the one FS caller off the build's coordinator.
type ioStats struct {
	storeLoad, storeSave                tally
	read, write, fsync, rename, syncDir tally
}

// timedStore times core.Store calls. It forwards Lock, so the Manager
// serializes builds exactly as it does over the bare DirStore.
type timedStore struct {
	ds *core.DirStore
	st *ioStats
}

func (s *timedStore) Load(name string) (*core.Entry, error) {
	defer s.st.storeLoad.since(time.Now())
	return s.ds.Load(name)
}

func (s *timedStore) Save(name string, e *core.Entry) error {
	defer s.st.storeSave.since(time.Now())
	return s.ds.Save(name, e)
}

func (s *timedStore) Lock() (func(), error) { return s.ds.Lock() }

// timedFS times the core.FS primitives on the read and save paths.
// Opening, writing and closing a file all count as write time; Sync is
// fsync time.
type timedFS struct {
	core.FS
	st *ioStats
}

func (f *timedFS) ReadFile(path string) ([]byte, error) {
	defer f.st.read.since(time.Now())
	return f.FS.ReadFile(path)
}

func (f *timedFS) OpenFile(path string, flag int, perm os.FileMode) (core.FileHandle, error) {
	defer f.st.write.since(time.Now())
	h, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{FileHandle: h, st: f.st}, nil
}

func (f *timedFS) Rename(oldPath, newPath string) error {
	defer f.st.rename.since(time.Now())
	return f.FS.Rename(oldPath, newPath)
}

func (f *timedFS) SyncDir(dir string) error {
	defer f.st.syncDir.since(time.Now())
	return f.FS.SyncDir(dir)
}

type timedFile struct {
	core.FileHandle
	st *ioStats
}

func (h *timedFile) Write(p []byte) (int, error) {
	defer h.st.write.since(time.Now())
	return h.FileHandle.Write(p)
}

func (h *timedFile) Sync() error {
	defer h.st.fsync.since(time.Now())
	return h.FileHandle.Sync()
}

func (h *timedFile) Close() error {
	defer h.st.write.since(time.Now())
	return h.FileHandle.Close()
}
