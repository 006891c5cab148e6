package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pid"
)

// DirStore persists Entries as ".bin" files in a directory — the
// paper's on-disk bin files plus the IRM's dependency metadata.
//
// The store is crash-safe and self-healing:
//
//   - Save is atomic: the entry is written to a temp file in the same
//     directory, fsynced, renamed over the target, and the directory is
//     fsynced — a crash at any point leaves either the old entry or the
//     new one, never a torn file under the real name.
//   - Every entry carries a CRC-64 trailer (format SMLIRM03). Load
//     verifies it, so torn or bit-rotted files are detected, moved to a
//     "quarantine/" subdirectory for post-mortem, and reported as a
//     *CorruptError — the Manager recompiles, it never links garbage.
//   - Lock serializes whole builds across goroutines and processes via
//     an O_CREAT|O_EXCL lockfile with stale-lock takeover.
type DirStore struct {
	Dir string
	// FS is the filesystem the store talks to; nil means the real one.
	// internal/faultfs substitutes a fault-injecting implementation.
	FS FS
	// Obs, when non-nil, receives store-level counters (store.bytes_*,
	// store.corrupt, store.quarantined, store.save_errors) and the
	// lockfile counters (lock.*). Because the counting sits above FS,
	// fault-injected (faultfs) runs are observed identically.
	Obs obs.Recorder

	// LockTimeout bounds how long Lock waits for a competing holder
	// (default 1 minute). LockStaleAfter is the age past which a
	// lockfile is presumed abandoned even when its owner cannot be
	// probed (default 10 minutes).
	LockTimeout    time.Duration
	LockStaleAfter time.Duration
	// HeartbeatEvery is the interval at which a live lock holder
	// refreshes the lockfile's mtime so LockStaleAfter never steals
	// from it (a watch session can hold the lock far longer than the
	// staleness window). Zero means LockStaleAfter/4; negative
	// disables the heartbeat.
	HeartbeatEvery time.Duration

	mu  sync.Mutex    // in-process half of the advisory lock
	seq atomic.Uint64 // temp-file uniquifier
}

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	return NewDirStoreFS(dir, OSFS{})
}

// NewDirStoreFS is NewDirStore over an explicit filesystem.
func NewDirStoreFS(dir string, fsys FS) (*DirStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{Dir: dir, FS: fsys}, nil
}

func (s *DirStore) fs() FS {
	if s.FS == nil {
		return OSFS{}
	}
	return s.FS
}

// path maps a unit name to its bin path (the paper's ".d.foo.sml"
// convention, flattened).
func (s *DirStore) path(name string) string {
	safe := strings.NewReplacer("/", "_", "\\", "_", ":", "_").Replace(name)
	return filepath.Join(s.Dir, safe+".bin")
}

// QuarantineDir is where corrupt entries are preserved.
func (s *DirStore) QuarantineDir() string {
	return filepath.Join(s.Dir, "quarantine")
}

// Load implements Store: (nil, nil) when absent, *CorruptError when an
// entry exists but fails validation (the file is quarantined first).
func (s *DirStore) Load(name string) (*Entry, error) {
	path := s.path(name)
	data, err := s.fs().ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	obs.Count(s.Obs, "store.bytes_read", int64(len(data)))
	if bytes.HasPrefix(data, []byte(staleEntryMagic)) {
		// An older version's entry is stale, not damaged: a miss.
		return nil, nil
	}
	e, derr := DecodeEntry(data)
	if derr != nil {
		obs.Count(s.Obs, "store.corrupt", 1)
		q := s.quarantine(path)
		if q != "" {
			obs.Count(s.Obs, "store.quarantined", 1)
		}
		return nil, &CorruptError{Name: name, Path: path, Quarantined: q, Err: derr}
	}
	return e, nil
}

// quarantine moves a corrupt bin file aside so it can never be re-read
// as a cache entry, returning the destination ("" if the corpse could
// not be preserved and was removed instead).
func (s *DirStore) quarantine(path string) string {
	fsys := s.fs()
	qdir := s.QuarantineDir()
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		fsys.Remove(path)
		return ""
	}
	base := filepath.Base(path)
	for i := 0; i < 1000; i++ {
		dst := filepath.Join(qdir, base)
		if i > 0 {
			dst = fmt.Sprintf("%s.%d", dst, i)
		}
		if _, err := fsys.Stat(dst); err == nil {
			continue // occupied by an earlier corpse
		}
		if err := fsys.Rename(path, dst); err == nil {
			return dst
		}
		break
	}
	fsys.Remove(path)
	return ""
}

// Save implements Store with the atomic-rename protocol: temp file in
// the same directory, fsync, rename, fsync the directory.
func (s *DirStore) Save(name string, e *Entry) error {
	err := s.save(name, e)
	if err != nil {
		obs.Count(s.Obs, "store.save_errors", 1)
	}
	return err
}

func (s *DirStore) save(name string, e *Entry) error {
	fsys := s.fs()
	data := EncodeEntry(e)
	path := s.path(name)
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), s.seq.Add(1))
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(s.Dir); err != nil {
		return err
	}
	obs.Count(s.Obs, "store.bytes_written", int64(len(data)))
	return nil
}

// Entry format: magic, body, and a CRC-64 trailer over everything that
// precedes it. An SMLIRM02 entry has the same layout, but its Defs and
// Free predate the constructor key (depend.KeyCon), so Load reads it as
// absent and the unit recompiles. Any other magic, the retired
// trailer-less SMLIRM01 included, is a corrupt entry: quarantined and
// recompiled.
const (
	entryMagic      = "SMLIRM03"
	staleEntryMagic = "SMLIRM02"
	crcTrailer      = 8
)

var entryCRC = crc64.MakeTable(crc64.ECMA)

// EncodeEntry serializes a cache entry in the current (SMLIRM03)
// format: magic, body, CRC-64/ECMA trailer over magic+body.
func EncodeEntry(e *Entry) []byte {
	var buf bytes.Buffer
	buf.WriteString(entryMagic)
	appendEntryBody(&buf, e)
	var tr [crcTrailer]byte
	binary.LittleEndian.PutUint64(tr[:], crc64.Checksum(buf.Bytes(), entryCRC))
	buf.Write(tr[:])
	return buf.Bytes()
}

// appendEntryBody writes the entry body: the fields between magic and
// trailer.
func appendEntryBody(buf *bytes.Buffer, e *Entry) {
	buf.Write(e.SrcHash[:])
	buf.Write(e.StatPid[:])
	writeStrings := func(ss []string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(ss)))
		buf.Write(n[:])
		for _, s := range ss {
			binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
			buf.Write(n[:])
			buf.WriteString(s)
		}
	}
	writeStrings(e.DepNames)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(e.DepPids)))
	buf.Write(n[:])
	for _, p := range e.DepPids {
		buf.Write(p[:])
	}
	writeStrings(e.Defs)
	writeStrings(e.Free)
	binary.LittleEndian.PutUint64(n[:], uint64(len(e.Bin)))
	buf.Write(n[:])
	buf.Write(e.Bin)
}

// DecodeEntry deserializes a cache entry, validating its CRC-64
// trailer. Every length field is bounds-checked against the bytes
// actually remaining, so arbitrary input can neither panic nor force
// large allocations.
//
// The returned Entry's Bin aliases data: the caller hands the buffer
// over and must not modify or reuse it afterwards. DirStore.Load passes
// the fresh buffer FS.ReadFile returned, so a warm load copies no bin.
func DecodeEntry(data []byte) (*Entry, error) {
	if len(data) < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("irm: bad entry magic")
	}
	if len(data) < len(entryMagic)+crcTrailer {
		return nil, fmt.Errorf("irm: entry too short for checksum trailer")
	}
	sum := binary.LittleEndian.Uint64(data[len(data)-crcTrailer:])
	if crc64.Checksum(data[:len(data)-crcTrailer], entryCRC) != sum {
		return nil, fmt.Errorf("irm: entry checksum mismatch")
	}
	return decodeEntryBody(data[len(entryMagic) : len(data)-crcTrailer])
}

// entryCursor reads the fields of an entry body in place. Reading them
// through io.ReadFull made each fixed-width field's buffer escape to
// the heap: about 27 allocations per entry on the benchmark project.
type entryCursor struct {
	b   []byte
	err error
}

// take returns the next n bytes without copying them.
func (c *entryCursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

func (c *entryCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *entryCursor) pid() pid.Pid {
	var p pid.Pid
	copy(p[:], c.take(pid.Size))
	return p
}

// strings reads a length-prefixed string list, one conversion per
// string.
func (c *entryCursor) strings() ([]string, error) {
	n := c.u64()
	// Each string costs at least its 8-byte length prefix, so the count
	// can never exceed the remaining bytes / 8.
	if c.err != nil || n > uint64(len(c.b))/8 {
		return nil, fmt.Errorf("irm: bad string count")
	}
	out := make([]string, n)
	for i := range out {
		m := c.u64()
		if c.err != nil || m > uint64(len(c.b)) {
			return nil, fmt.Errorf("irm: bad string length")
		}
		out[i] = string(c.take(m))
	}
	return out, nil
}

func decodeEntryBody(body []byte) (*Entry, error) {
	c := &entryCursor{b: body}
	e := &Entry{SrcHash: c.pid(), StatPid: c.pid()}
	if c.err != nil {
		return nil, c.err
	}
	var err error
	if e.DepNames, err = c.strings(); err != nil {
		return nil, err
	}
	np := c.u64()
	if c.err != nil || np > uint64(len(c.b))/pid.Size {
		return nil, fmt.Errorf("irm: bad pid count")
	}
	e.DepPids = make([]pid.Pid, np)
	for i := range e.DepPids {
		e.DepPids[i] = c.pid()
	}
	if e.Defs, err = c.strings(); err != nil {
		return nil, err
	}
	if e.Free, err = c.strings(); err != nil {
		return nil, err
	}
	nb := c.u64()
	// The bin is the final field: it must consume the rest exactly, so
	// truncations and trailing junk are both rejected.
	if c.err != nil || nb != uint64(len(c.b)) {
		return nil, fmt.Errorf("irm: bad bin length")
	}
	e.Bin = c.take(nb)
	return e, nil
}

// Group is a named collection of source files, the unit of building
// (§9: the IRM's library groups).
type Group struct {
	Name  string
	Files []File
}

// LoadGroup reads a ".cm"-style group description: one source filename
// per line (relative to the group file), '#' comments, and
// "group other.cm" lines including subgroups (depth-first, each file
// once). Every returned File carries the Path it was read from.
func LoadGroup(path string) (*Group, error) {
	return LoadGroupFS(path, OSFS{})
}

// LoadGroupFS is LoadGroup over an explicit filesystem, so the watch
// loop's group reloads go through the same fault-injectable FS as its
// polling and the store's writes.
func LoadGroupFS(path string, fsys FS) (*Group, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	g := &Group{Name: path}
	seen := map[string]bool{}
	if err := loadGroupInto(fsys, path, g, seen, 0); err != nil {
		return nil, err
	}
	return g, nil
}

func loadGroupInto(fsys FS, path string, g *Group, seen map[string]bool, depth int) error {
	if depth > 32 {
		return fmt.Errorf("irm: group nesting too deep at %s", path)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sub, ok := strings.CutPrefix(line, "group "); ok {
			subPath := filepath.Join(dir, strings.TrimSpace(sub))
			if seen[subPath] {
				continue
			}
			seen[subPath] = true
			if err := loadGroupInto(fsys, subPath, g, seen, depth+1); err != nil {
				return err
			}
			continue
		}
		srcPath := filepath.Join(dir, line)
		if seen[srcPath] {
			continue
		}
		seen[srcPath] = true
		src, err := fsys.ReadFile(srcPath)
		if err != nil {
			return err
		}
		g.Files = append(g.Files, File{Name: line, Source: string(src), Path: srcPath})
	}
	return nil
}
