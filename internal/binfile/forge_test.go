package binfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/pid"
)

// Bin-stream bytes that precede a stamp's origin pid: the permanent
// stamp tag of an inline object's own stamp, and the stub tag.
const (
	stampPerm = 1
	tagStub   = 3
)

// stampsAt returns the offsets of the origin pids of the stamps of
// origin that follow the byte tag, searching past the bin's header.
func stampsAt(t testing.TB, bin []byte, tag byte, origin pid.Pid) []int {
	t.Helper()
	from := 0
	if tag == stampPerm {
		from = bytes.Index(bin, origin[:]) + 1 // past the header's pid
	}
	var offs []int
	pat := append([]byte{tag}, origin[:]...)
	for i := bytes.Index(bin[from:], pat); i >= 0; i = bytes.Index(bin[from:], pat) {
		offs = append(offs, from+i+1)
		from += i + 1
	}
	if len(offs) == 0 {
		t.Fatalf("no stamp of %s after tag %d", origin.Short(), tag)
	}
	return offs
}

// withStamp returns a copy of bin whose stamp at off reads {origin, ord}.
func withStamp(bin []byte, off int, origin pid.Pid, ord int64) []byte {
	_, n := binary.Varint(bin[off+pid.Size:])
	out := append([]byte(nil), bin[:off]...)
	out = append(out, origin[:]...)
	out = binary.AppendVarint(out, ord)
	return append(out, bin[off+pid.Size+n:]...)
}

// forgedStamp is a bin with one forged stamp and what reading it
// against the session that compiled it reports ("" when it loads).
type forgedStamp struct {
	name    string
	bin     []byte
	readErr string
}

// forgedStampBins runs three units in s — shapes, which owns a tycon,
// a structure and a functor; client, whose bin stubs the tycon; other,
// which owns a tycon client does not import — and forges the stamps of
// shapes' and client's bins.
func forgedStampBins(t testing.TB, s *compiler.Session) []forgedStamp {
	t.Helper()
	run := func(name, src string) (*compiler.Unit, []byte) {
		u, err := s.Run(name, src)
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		return u, data
	}
	shapes, shapesBin := run("shapes", `
		datatype shape = Circle of int | Square of int
		structure Area = struct fun area (Square n) = n * n | area (Circle r) = 3 * r * r end
		functor Scale (K : sig val k : int end) = struct fun by n = K.k * n end
	`)
	_, clientBin := run("client", "val unit = Square 1")
	other, _ := run("other", "datatype color = Red | Green")
	own := stampsAt(t, shapesBin, stampPerm, shapes.StatPid)
	stub := stampsAt(t, clientBin, tagStub, shapes.StatPid)[0]
	// shapes' objects by ordinal: the tycon shape, the structure Area,
	// the functor Scale; other's first is the tycon color.
	if len(own) != 3 || fmt.Sprintf("%T %T", shapes.Owned[1], other.Owned[0]) != "*env.Structure *types.Tycon" {
		t.Fatalf("shapes owns %v, other %v", shapes.Owned, other.Owned)
	}
	return []forgedStamp{
		{"own-ordinal-skipped", withStamp(shapesBin, own[0], shapes.StatPid, 3), "out of sequence"},
		{"own-ordinal-huge", withStamp(shapesBin, own[0], shapes.StatPid, 1<<40), "out of sequence"},
		// Scale repeats Area's ordinal, so shapes owns two objects.
		{"own-ordinal-repeated", withStamp(shapesBin, own[2], shapes.StatPid, 2), ""},
		{"stub-ordinal-range", withStamp(clientBin, stub, shapes.StatPid, int64(len(shapes.Owned)+1)), "no context object"},
		{"stub-wrong-kind", withStamp(clientBin, stub, shapes.StatPid, 2), "expected tycon"},
		{"stub-unknown-origin", withStamp(clientBin, stub, pid.HashString("nowhere"), 1), "no context object"},
		{"stub-other-unit", withStamp(clientBin, stub, other.StatPid, 1), ""},
	}
}

// TestReadRejectsForgedStamps: a read fails when an own ordinal skips
// ahead, when a stub's ordinal is past its origin's table or names an
// object of another kind, and when its origin is unknown. An own
// ordinal that repeats one reads, and the table keeps the first object
// stamped with it. A stub into another unit of the session resolves:
// an Index has no import DAG (the build's resolver does, see
// internal/core).
func TestReadRejectsForgedStamps(t *testing.T) {
	s, err := compiler.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range forgedStampBins(t, s) {
		u, err := Read(f.bin, s.Index, nil, nil)
		if f.readErr == "" && err != nil || f.readErr != "" && (err == nil || !strings.Contains(err.Error(), f.readErr)) {
			t.Errorf("%s: read %v, want %q", f.name, err, f.readErr)
		}
		if f.name == "own-ordinal-repeated" && err == nil {
			if len(u.Owned) != 2 || fmt.Sprintf("%T", u.Owned[1]) != "*env.Structure" {
				t.Errorf("%s: owned %v, want the structure second of two", f.name, u.Owned)
			}
		}
	}
}
