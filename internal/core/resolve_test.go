package core_test

// A load resolves each stub of its bin by origin and ordinal, against
// the basis, the prelude and the loading unit's ancestors (DESIGN.md
// §4c). These tests forge stamps in the bins of the golden corpus's
// cross-unit project and require each forged bin to fail its read and
// its unit to recompile, with the same explain records at -j1 and -j8.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
	"repro/internal/workload"
)

// Bin-stream bytes that precede a stamp's origin pid: the permanent
// stamp tag of an inline object's own stamp, and the stub tag.
const (
	stampPerm = 1
	tagStub   = 3
)

// stampAt finds the first stamp of origin after the bin's header that
// follows the byte tag. It returns the offset of the origin pid and the
// stamp's ordinal.
func stampAt(t *testing.T, bin []byte, tag byte, origin pid.Pid) (off int, ord int64) {
	t.Helper()
	header := bytes.Index(bin, origin[:])
	if tag == tagStub {
		header = 0 // a stub's origin is another unit's pid
	}
	i := bytes.Index(bin[header+1:], append([]byte{tag}, origin[:]...))
	if header < 0 || i < 0 {
		t.Fatalf("no stamp of %s after tag %d", origin.Short(), tag)
	}
	off = header + 1 + i + 1
	ord, n := binary.Varint(bin[off+pid.Size:])
	if n <= 0 {
		t.Fatalf("bad ordinal at %d", off)
	}
	return off, ord
}

// withStamp returns a copy of bin whose stamp at off reads {origin, ord}.
func withStamp(bin []byte, off int, origin pid.Pid, ord int64) []byte {
	_, n := binary.Varint(bin[off+pid.Size:])
	out := append([]byte(nil), bin[:off]...)
	out = append(out, origin[:]...)
	out = binary.AppendVarint(out, ord)
	return append(out, bin[off+pid.Size+n:]...)
}

// forgedBin is one forgery: the unit whose bin it replaces, and what a
// read against the session's index, which holds every unit of the
// build, reports ("" when it resolves).
type forgedBin struct {
	name, unit string
	bin        []byte
	readErr    string
}

// forgeCrossUnit builds the cross-unit project cold into store and
// returns its forgeries.
func forgeCrossUnit(t *testing.T, store *core.MemStore, files []core.File) []forgedBin {
	t.Helper()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: &bytes.Buffer{}, Jobs: 1}
	s, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]*compiler.Unit{}
	for _, u := range s.Units {
		units[u.Name] = u
	}
	bin := func(name string) []byte {
		e, err := store.Load(name)
		if err != nil || e == nil {
			t.Fatalf("%s: no entry (%v)", name, err)
		}
		return e.Bin
	}
	geo, grow := units["geometry.sml"], units["grow.sml"]
	geoBin, growBin := bin("geometry.sml"), bin("grow.sml")

	ownOff, ownOrd := stampAt(t, geoBin, stampPerm, geo.StatPid)
	stubOff, stubOrd := stampAt(t, growBin, tagStub, geo.StatPid)
	kind := reflect.TypeOf(geo.Owned[stubOrd-1])
	// Another of geometry.sml's objects, of another kind; and an object
	// of the stub's kind owned by a unit of the build that is not an
	// ancestor of grow.sml.
	wrongKind := int64(0)
	for i, obj := range geo.Owned {
		if reflect.TypeOf(obj) != kind {
			wrongKind = int64(i + 1)
			break
		}
	}
	var stranger *compiler.Unit
	strangerOrd := int64(0)
	for _, name := range []string{"counters.sml", "safe.sml"} {
		for i, obj := range units[name].Owned {
			if stranger == nil && reflect.TypeOf(obj) == kind {
				stranger, strangerOrd = units[name], int64(i+1)
			}
		}
	}
	if wrongKind == 0 || stranger == nil {
		t.Fatalf("no object of another kind in %s, or of kind %v outside %s's ancestors",
			geo.Name, kind, grow.Name)
	}
	return []forgedBin{
		{"own-ordinal-skipped", "geometry.sml", withStamp(geoBin, ownOff, geo.StatPid, ownOrd+2), "out of sequence"},
		{"own-ordinal-huge", "geometry.sml", withStamp(geoBin, ownOff, geo.StatPid, 1<<40), "out of sequence"},
		{"stub-ordinal-range", "grow.sml", withStamp(growBin, stubOff, geo.StatPid, int64(len(geo.Owned)+1)), "no context object"},
		{"stub-wrong-kind", "grow.sml", withStamp(growBin, stubOff, geo.StatPid, wrongKind), "expected"},
		{"stub-unknown-origin", "grow.sml", withStamp(growBin, stubOff, pid.HashString("nowhere"), stubOrd), "no context object"},
		{"stub-not-ancestor", "grow.sml", withStamp(growBin, stubOff, stranger.StatPid, strangerOrd), ""},
	}
}

// TestResolveRejectsForgedStamps: each forged bin fails to load and its
// unit recompiles from source with reason bin-unreadable, its
// dependents load, the program prints what the cold build printed, and
// the explain records are the same at -j1 and -j8. A stub into a unit
// of the build that is not an ancestor fails too, although the
// session's index, which holds every unit, resolves it.
func TestResolveRejectsForgedStamps(t *testing.T) {
	files := workload.GoldenCorpus()["crossunit-6"].Files
	cold := core.NewMemStore()
	forged := forgeCrossUnit(t, cold, files)
	s, err := (&core.Manager{Store: core.NewMemStore(), Stdout: &bytes.Buffer{}}).Build(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range forged {
		t.Run(f.name, func(t *testing.T) {
			_, err := binfile.Read(f.bin, s.Index, nil, nil)
			if f.readErr == "" && err != nil || f.readErr != "" && (err == nil || !strings.Contains(err.Error(), f.readErr)) {
				t.Fatalf("read against the whole build: %v, want %q", err, f.readErr)
			}
			var explains [][]obs.Explain
			for _, jobs := range []int{1, 8} {
				store := core.NewMemStore()
				for _, file := range files {
					e, _ := cold.Load(file.Name)
					if file.Name == f.unit {
						e.Bin = f.bin
					}
					store.Save(file.Name, e)
				}
				var out bytes.Buffer
				m := &core.Manager{Policy: core.PolicyCutoff, Store: store, Stdout: &out, Jobs: jobs,
					EnvCache: pickle.NewEnvCache(0)}
				if _, err := m.Build(files); err != nil {
					t.Fatalf("-j%d: %v", jobs, err)
				}
				if got, want := out.String(), "10 27 0 3\n#2 10 25\n"; got != want {
					t.Errorf("-j%d printed %q, want %q", jobs, got, want)
				}
				for _, e := range m.Explains {
					recompiled := e.Action == obs.ActionCompiled
					if recompiled != (e.Unit == f.unit) ||
						recompiled && e.Reason != obs.ReasonBinUnreadable {
						t.Errorf("-j%d: %s %s (%s)", jobs, e.Unit, e.Action, e.Reason)
					}
				}
				explains = append(explains, m.Explains)
			}
			if !reflect.DeepEqual(explains[0], explains[1]) {
				t.Errorf("explain records differ:\n-j1: %+v\n-j8: %+v", explains[0], explains[1])
			}
		})
	}
}

// TestResolveHugeOwnOrdinalAllocatesNothing: an own ordinal of 1<<40
// fails the read before anything is sized by it.
func TestResolveHugeOwnOrdinalAllocatesNothing(t *testing.T) {
	files := workload.GoldenCorpus()["crossunit-6"].Files
	var huge []byte
	for _, f := range forgeCrossUnit(t, core.NewMemStore(), files) {
		if f.name == "own-ordinal-huge" {
			huge = f.bin
		}
	}
	const reads = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, err := binfile.Read(huge, nil, nil, nil); err == nil {
			t.Fatal("forged ordinal read")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 64<<10 {
		t.Errorf("a read allocates %d bytes", per)
	}
}
