package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"
)

// chainFiles builds a three-unit chain c -> b -> a (c depends on b
// depends on a).
func chainFiles(aBody string) []File {
	return []File{
		{Name: "a.sml", Source: aBody},
		{Name: "b.sml", Source: "structure B = struct val two = A.one + A.one end"},
		{Name: "c.sml", Source: "structure C = struct val four = B.two + B.two end"},
	}
}

const aV1 = "structure A = struct val one = 1 end"
const aV1Comment = "(* a comment *) structure A = struct val one = 1 end"
const aV1Impl = "structure A = struct val one = 2 - 1 end"
const aV2Interface = "structure A = struct val one = 1 val extra = true end"

func TestColdBuildCompilesEverything(t *testing.T) {
	m := NewManager()
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 3 || m.Stats.Loaded != 0 {
		t.Fatalf("cold build: compiled=%d loaded=%d", m.Stats.Compiled, m.Stats.Loaded)
	}
}

func TestNullBuildLoadsEverything(t *testing.T) {
	m := NewManager()
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 0 || m.Stats.Loaded != 3 {
		t.Fatalf("null build: compiled=%d loaded=%d", m.Stats.Compiled, m.Stats.Loaded)
	}
	if m.Stats.Parsed != 0 {
		t.Fatalf("null build re-parsed %d files", m.Stats.Parsed)
	}
}

// TestCutoffCommentEdit is the paper's headline behaviour: editing a
// comment (or any implementation detail) of a leaf unit recompiles
// that unit only; its interface hash is unchanged, so dependents are
// cut off.
func TestCutoffCommentEdit(t *testing.T) {
	for _, edit := range []struct {
		name string
		src  string
	}{
		{"comment", aV1Comment},
		{"implementation", aV1Impl},
	} {
		t.Run(edit.name, func(t *testing.T) {
			m := NewManager()
			if _, err := m.Build(chainFiles(aV1)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Build(chainFiles(edit.src)); err != nil {
				t.Fatal(err)
			}
			if m.Stats.Compiled != 1 {
				t.Errorf("edit %s: compiled=%d, want 1 (cutoff)", edit.name, m.Stats.Compiled)
			}
			if m.Stats.Cutoffs != 1 {
				t.Errorf("edit %s: cutoffs=%d, want 1", edit.name, m.Stats.Cutoffs)
			}
			if m.Stats.Loaded != 2 {
				t.Errorf("edit %s: loaded=%d, want 2", edit.name, m.Stats.Loaded)
			}
		})
	}
}

// TestInterfaceEditCascades: an interface change recompiles direct
// dependents — but the cascade stops as soon as an intermediate unit's
// own interface is unchanged. Here A's new export changes A's
// interface, so B recompiles; B's interface is unchanged, so C is cut
// off even though B was recompiled (the paper's cutoff, one level
// deeper than make could ever manage).
func TestInterfaceEditCascades(t *testing.T) {
	m := NewManager()
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Build(chainFiles(aV2Interface)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 2 {
		t.Errorf("interface edit: compiled=%d, want 2 (a and b)", m.Stats.Compiled)
	}
	if m.Stats.Loaded != 1 {
		t.Errorf("interface edit: loaded=%d, want 1 (c cut off at b)", m.Stats.Loaded)
	}
	if m.Stats.Cutoffs != 1 {
		t.Errorf("interface edit: cutoffs=%d, want 1 (b preserved its interface)", m.Stats.Cutoffs)
	}
}

// TestTimestampPolicyCascades: under the make policy even a comment
// edit recompiles the whole downstream cone — the waste cutoff avoids.
func TestTimestampPolicyCascades(t *testing.T) {
	m := NewManager()
	m.Policy = PolicyTimestamp
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Build(chainFiles(aV1Comment)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 3 {
		t.Errorf("timestamp comment edit: compiled=%d, want 3 (cascade)", m.Stats.Compiled)
	}
}

// TestBuildResultIsCorrect checks that cutoff reuse still produces a
// correctly linked, executable program.
func TestBuildResultIsCorrect(t *testing.T) {
	m := NewManager()
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Build(chainFiles(aV1Impl))
	if err != nil {
		t.Fatal(err)
	}
	sb, ok := s.Context.LookupStr("C")
	if !ok {
		t.Fatal("structure C not in scope after incremental build")
	}
	strVal, ok := s.Dyn.Lookup(sb.ExportPid)
	if !ok {
		t.Fatal("no dynamic value for C")
	}
	_ = strVal
	vb, ok := sb.Str.Env.LocalVal("four")
	if !ok {
		t.Fatal("C.four missing")
	}
	_ = vb
}

// TestDatatypeAcrossUnits checks cross-unit datatype identity through
// the bin-file load path: the constructor defined in a loaded unit
// must pattern-match values built in a freshly compiled one.
func TestDatatypeAcrossUnits(t *testing.T) {
	files := []File{
		{Name: "shape.sml", Source: `
			datatype shape = Circle of int | Square of int
			fun area (Circle r) = 3 * r * r
			  | area (Square s) = s * s
		`},
		{Name: "use.sml", Source: `
			val a1 = area (Circle 2)
			val a2 = area (Square 3)
			val total = a1 + a2
		`},
	}
	m := NewManager()
	if _, err := m.Build(files); err != nil {
		t.Fatal(err)
	}
	// Edit only the client; the datatype unit is loaded from bin.
	files[1].Source += "\nval more = total + 1"
	s, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Loaded != 1 || m.Stats.Compiled != 1 {
		t.Fatalf("loaded=%d compiled=%d, want 1/1", m.Stats.Loaded, m.Stats.Compiled)
	}
	vb, ok := s.Context.LookupVal("total")
	if !ok {
		t.Fatal("total not bound")
	}
	v, ok := s.Dyn.Lookup(vb.ExportPid)
	if !ok {
		t.Fatal("total has no value")
	}
	if got := v; got == nil {
		t.Fatal("nil total")
	}
}

// TestPatternVariableNoFalseCycle: xs is a variable of a.sml's clause
// patterns, not a reference to b.sml's top-level xs, so the pair
// orders a before b instead of failing with a dependency cycle, and a
// constructor used as a pattern in a unit listed before its definer
// still orders the definer first.
func TestPatternVariableNoFalseCycle(t *testing.T) {
	for _, tc := range []struct {
		files []File
		want  string
	}{
		{[]File{
			{Name: "a.sml", Source: "fun f (x :: xs) = xs | f [] = []"},
			{Name: "b.sml", Source: "val xs = f [1, 2]\nval _ = print (Int.toString (length xs))"},
		}, "1"},
		{[]File{
			{Name: "use.sml", Source: "fun isRed Red = \"red\" | isRed _ = \"other\"\nval _ = print (isRed Red)"},
			{Name: "color.sml", Source: "datatype color = Red | Green"},
		}, "red"},
	} {
		for _, jobs := range []int{1, 4} {
			var out bytes.Buffer
			m := NewManager()
			m.Stdout, m.Jobs = &out, jobs
			if _, err := m.Build(tc.files); err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			if out.String() != tc.want {
				t.Errorf("jobs=%d: printed %q, want %q", jobs, out.String(), tc.want)
			}
		}
	}
}

// TestFunctorCutoff: a functor body is part of a unit's interface (the
// body is re-elaborated by clients), so editing the body must NOT be
// cut off — dependents recompile.
func TestFunctorBodyEditRecompilesClients(t *testing.T) {
	lib := File{Name: "lib.sml", Source: `
		functor Add (X : sig val n : int end) = struct val m = X.n + 1 end
	`}
	use := File{Name: "use.sml", Source: `
		structure Arg = struct val n = 41 end
		structure R = Add (Arg)
		val result = R.m
	`}
	m := NewManager()
	if _, err := m.Build([]File{lib, use}); err != nil {
		t.Fatal(err)
	}
	lib.Source = `
		functor Add (X : sig val n : int end) = struct val m = X.n + 2 end
	`
	if _, err := m.Build([]File{lib, use}); err != nil {
		t.Fatal(err)
	}
	// The functor body is part of lib's interface, so lib's statpid
	// changes and use.sml must recompile (compiled=2). use.sml's own
	// interface is unchanged, so its recompilation counts as a cutoff
	// hit for *its* dependents.
	if m.Stats.Compiled != 2 {
		t.Errorf("functor body edit: compiled=%d, want 2 (body is interface)", m.Stats.Compiled)
	}
	if m.Stats.Loaded != 0 {
		t.Errorf("functor body edit: loaded=%d, want 0", m.Stats.Loaded)
	}
}

// TestDiamondDependency builds a diamond and edits one side's
// implementation.
func TestDiamondDependency(t *testing.T) {
	files := []File{
		{Name: "base.sml", Source: "structure Base = struct val v = 10 end"},
		{Name: "left.sml", Source: "structure L = struct val x = Base.v + 1 end"},
		{Name: "right.sml", Source: "structure R = struct val y = Base.v + 2 end"},
		{Name: "top.sml", Source: "val sum = L.x + R.y"},
	}
	m := NewManager()
	if _, err := m.Build(files); err != nil {
		t.Fatal(err)
	}
	// Implementation edit in left: only left recompiles.
	files[1].Source = "structure L = struct val x = Base.v + 2 - 1 end"
	if _, err := m.Build(files); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Compiled != 1 || m.Stats.Loaded != 3 {
		t.Fatalf("diamond impl edit: compiled=%d loaded=%d, want 1/3",
			m.Stats.Compiled, m.Stats.Loaded)
	}
}

// entryFixture is a representative entry for format tests.
func entryFixture() *Entry {
	e := &Entry{
		DepNames: []string{"a", "b"},
		Defs:     []string{"s:A"},
		Free:     []string{"v:x", "t:t"},
		Bin:      []byte{1, 2, 3},
	}
	e.SrcHash[3] = 7
	e.StatPid[0] = 9
	e.DepPids = append(e.DepPids, e.SrcHash, e.StatPid)
	return e
}

// legacyEntryMagic is the magic of the retired SMLIRM01 entry format,
// which had no checksum trailer. The store no longer reads it.
const legacyEntryMagic = "SMLIRM01"

// encodeEntryV1 lays an entry out as SMLIRM01 did (magic and body, no
// trailer), for tests that forge one.
func encodeEntryV1(e *Entry) []byte {
	var buf bytes.Buffer
	buf.WriteString(legacyEntryMagic)
	appendEntryBody(&buf, e)
	return buf.Bytes()
}

// sealEntry wraps body in a valid SMLIRM03 envelope: magic, body, and
// a CRC-64 trailer recomputed over both. The checksum catches damage,
// not forgery, so a sealed body reaches the body parser whatever it
// holds.
func sealEntry(body []byte) []byte {
	out := append([]byte(entryMagic), body...)
	var tr [crcTrailer]byte
	binary.LittleEndian.PutUint64(tr[:], crc64.Checksum(out, entryCRC))
	return append(out, tr[:]...)
}

// TestEntryChecksumDetectsFlips: any single-byte change to a V2 entry
// fails validation (the trailer covers magic and body; a flip inside
// the trailer itself mismatches the recomputed sum).
func TestEntryChecksumDetectsFlips(t *testing.T) {
	data := EncodeEntry(entryFixture())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeEntry(mut); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(data))
		}
	}
}

// TestEntryTruncationRejected: every proper prefix fails validation.
func TestEntryTruncationRejected(t *testing.T) {
	data := EncodeEntry(entryFixture())
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeEntry(data[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d accepted", cut, len(data))
		}
	}
}

// TestEntryTrailingJunkRejected: extra bytes after the bin payload are
// an error twice over: appended to an entry they fail the CRC, and
// sealed under a recomputed CRC they fail the body parser.
func TestEntryTrailingJunkRejected(t *testing.T) {
	var body bytes.Buffer
	appendEntryBody(&body, entryFixture())
	if _, err := DecodeEntry(sealEntry(body.Bytes())); err != nil {
		t.Fatalf("sealed fixture rejected: %v", err)
	}
	if _, err := DecodeEntry(sealEntry(append(body.Bytes(), 0xEE))); err == nil {
		t.Error("sealed entry with trailing junk accepted")
	}
	if _, err := DecodeEntry(append(EncodeEntry(entryFixture()), 0xEE)); err == nil {
		t.Error("entry with trailing junk accepted")
	}
}

// TestDecodeEntryBoundsAllocations: a forged huge length field, sealed
// under a valid CRC so that it reaches the body parser, must be
// rejected outright (not trigger a giant allocation attempt).
func TestDecodeEntryBoundsAllocations(t *testing.T) {
	var buf bytes.Buffer
	var zero [32]byte // SrcHash + StatPid
	buf.Write(zero[:])
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], 1<<60) // absurd DepNames count
	buf.Write(n[:])
	if _, err := DecodeEntry(sealEntry(buf.Bytes())); err == nil || err.Error() != "irm: bad string count" {
		t.Fatalf("absurd count: error %v, want the string-count check", err)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := &Entry{
		DepNames: []string{"a", "b"},
		Defs:     []string{"s:A"},
		Free:     []string{"v:x", "t:t"},
		Bin:      []byte{1, 2, 3},
	}
	e.SrcHash[3] = 7
	e.StatPid[0] = 9
	e.DepPids = append(e.DepPids, e.SrcHash, e.StatPid)
	out, err := DecodeEntry(EncodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcHash != e.SrcHash || out.StatPid != e.StatPid ||
		len(out.DepNames) != 2 || out.DepNames[1] != "b" ||
		len(out.DepPids) != 2 || out.DepPids[0] != e.SrcHash ||
		len(out.Bin) != 3 || out.Bin[2] != 3 {
		t.Fatalf("entry round trip mismatch: %+v", out)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyCutoff, PolicyTimestamp} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"", "bogus"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}
