package core

// Format downgrades: the store reads one entry format (SMLIRM03, with
// a CRC-64 trailer) and one bin format (SMLIRM03 entries carry
// binfile.Magic bins). An entry or bin relabelled with a retired magic
// is never a way to skip the checksum: the build discards it,
// recompiles, and prints what a cold build prints. Damage is counted
// corrupt; an older version's format is stale and is not.

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"os"
	"testing"

	"repro/internal/binfile"
	"repro/internal/obs"
)

// dirBuild builds files against the DirStore at dir with a fresh
// Manager and returns the program output, the Manager (for Stats) and
// the build's counters.
func dirBuild(t *testing.T, dir string, files []File) (string, *Manager, map[string]int64) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	store.Obs = col
	var out bytes.Buffer
	m := NewManager()
	m.Store, m.Obs, m.Stdout = store, col, &out
	if _, err := m.Build(files); err != nil {
		t.Fatal(err)
	}
	return out.String(), m, col.Counters()
}

// readEntry decodes the stored entry of unit name.
func readEntry(t *testing.T, dir, name string) *Entry {
	t.Helper()
	data, err := os.ReadFile((&DirStore{Dir: dir}).path(name))
	if err != nil {
		t.Fatal(err)
	}
	e, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func printProgram(n string) []File {
	return []File{{Name: "p.sml", Source: "val _ = print (Int.toString " + n + " ^ \"\\n\")"}}
}

// TestEntryChecksumDowngradeRejected forges an entry whose bin prints
// 424243 where the source prints 424242, one byte apart, and labels it
// SMLIRM01 without a trailer — the downgrade that once skipped the
// checksum. The build must count it corrupt, recover by recompiling,
// and print the source's value.
func TestEntryChecksumDowngradeRejected(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	if out, _, _ := dirBuild(t, dir, printProgram("424242")); out != "424242\n" {
		t.Fatalf("cold build printed %q", out)
	}
	dirBuild(t, other, printProgram("424243"))
	e := readEntry(t, dir, "p.sml")
	forged := readEntry(t, other, "p.sml").Bin
	diff := 0
	for i := range forged {
		if i < len(e.Bin) && forged[i] != e.Bin[i] {
			diff++
		}
	}
	if len(forged) != len(e.Bin) || diff != 1 {
		t.Fatalf("the two bins differ in %d bytes (lengths %d, %d), want one flipped byte",
			diff, len(e.Bin), len(forged))
	}
	e.Bin = forged
	if err := os.WriteFile((&DirStore{Dir: dir}).path("p.sml"), encodeEntryV1(e), 0o644); err != nil {
		t.Fatal(err)
	}

	out, m, c := dirBuild(t, dir, printProgram("424242"))
	if out != "424242\n" {
		t.Errorf("build over the forged entry printed %q, want 424242", out)
	}
	if c["store.corrupt"] != 1 || c["cache.recovered"] != 1 {
		t.Errorf("store.corrupt=%d cache.recovered=%d, want 1/1", c["store.corrupt"], c["cache.recovered"])
	}
	if m.Stats.Corrupt != 1 || m.Stats.Recovered != 1 || m.Stats.Compiled != 1 {
		t.Errorf("stats corrupt=%d recovered=%d compiled=%d, want 1/1/1",
			m.Stats.Corrupt, m.Stats.Recovered, m.Stats.Compiled)
	}
}

// TestLegacyBinMagicRecompiled stores a valid SMLIRM03 entry whose bin
// is relabelled with each retired bin magic: SMLBIN01 (no code
// section), SMLBIN02 (the code section of the eta-expanded primitive
// call), SMLBIN03 (the tuple a curried clausal function built from
// its parameters), SMLBIN04 (the alias a one-parameter clausal
// function bound its parameter to), SMLBIN05 (the bindings no export
// can reach, before lambda.Prune) and SMLBIN06 (the constructor
// function applied to its argument, and the Lets a tuple bound its
// fields with). The bin must fail to load
// and its unit be recompiled; output and every stored bin then equal a
// cold build's.
// A retired format is stale, not damaged, so the unit is counted
// neither corrupt nor recovered — the summary agrees with its explain
// record, bin-unreadable. A magic no version wrote is corruption.
func TestLegacyBinMagicRecompiled(t *testing.T) {
	files := []File{
		{Name: "a.sml", Source: "structure A = struct val n = 424242 end"},
		{Name: "b.sml", Source: "val _ = print (Int.toString A.n ^ \"\\n\")"},
	}
	for _, tc := range []struct {
		magic   string
		corrupt int
	}{{"SMLBIN01", 0}, {"SMLBIN02", 0}, {"SMLBIN03", 0}, {"SMLBIN04", 0}, {"SMLBIN05", 0}, {"SMLBIN06", 0}, {"SMLBIN99", 1}} {
		magic := tc.magic
		t.Run(magic, func(t *testing.T) {
			dir := t.TempDir()
			coldOut, _, _ := dirBuild(t, dir, files)
			coldBins := map[string][]byte{}
			for _, f := range files {
				coldBins[f.Name] = readEntry(t, dir, f.Name).Bin
			}

			e := readEntry(t, dir, "a.sml")
			e.Bin = append([]byte(magic), e.Bin[len(binfile.Magic):]...)
			if err := os.WriteFile((&DirStore{Dir: dir}).path("a.sml"), EncodeEntry(e), 0o644); err != nil {
				t.Fatal(err)
			}

			out, m, _ := dirBuild(t, dir, files)
			if out != coldOut {
				t.Errorf("rebuild printed %q, cold build %q", out, coldOut)
			}
			if m.Stats.Compiled != 1 || m.Stats.Corrupt != tc.corrupt || m.Stats.Recovered != tc.corrupt {
				t.Errorf("stats compiled=%d corrupt=%d recovered=%d, want 1/%d/%d",
					m.Stats.Compiled, m.Stats.Corrupt, m.Stats.Recovered, tc.corrupt, tc.corrupt)
			}
			// The entry's checksum holds, so the explain record names
			// the bin, not the entry (obs.ReasonBinUnreadable).
			if x := explainByUnit(t, m, len(files))["a.sml"]; x.Action != obs.ActionCompiled || x.Reason != obs.ReasonBinUnreadable {
				t.Errorf("a.sml: action=%s reason=%s, want compiled/%s", x.Action, x.Reason, obs.ReasonBinUnreadable)
			}
			for _, f := range files {
				if got := readEntry(t, dir, f.Name).Bin; !bytes.Equal(got, coldBins[f.Name]) {
					t.Errorf("%s: stored bin differs from the cold build's", f.Name)
				}
			}
		})
	}
}

// TestStaleEntryMagicIsMiss rewrites every entry of a cold store in the
// previous entry format, SMLIRM02: the same layout and a valid trailer,
// but Defs/Free keyed before depend.KeyCon. The rebuild reads each as a
// cache miss — recompiled, neither corrupt nor quarantined — and
// leaves output and bins equal to the cold build's.
func TestStaleEntryMagicIsMiss(t *testing.T) {
	files := []File{
		{Name: "a.sml", Source: "fun f (x :: xs) = xs | f [] = []"},
		{Name: "b.sml", Source: "val xs = f [1, 2]\nval _ = print (Int.toString (length xs) ^ \"\\n\")"},
	}
	dir := t.TempDir()
	coldOut, _, _ := dirBuild(t, dir, files)
	if coldOut != "1\n" {
		t.Fatalf("cold build printed %q", coldOut)
	}
	coldBins := map[string][]byte{}
	for _, f := range files {
		e := readEntry(t, dir, f.Name)
		coldBins[f.Name] = e.Bin
		var body bytes.Buffer
		appendEntryBody(&body, e)
		old := append([]byte(staleEntryMagic), body.Bytes()...)
		var tr [crcTrailer]byte
		binary.LittleEndian.PutUint64(tr[:], crc64.Checksum(old, entryCRC))
		if err := os.WriteFile((&DirStore{Dir: dir}).path(f.Name), append(old, tr[:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out, m, c := dirBuild(t, dir, files)
	if out != coldOut {
		t.Errorf("rebuild printed %q, cold build %q", out, coldOut)
	}
	if m.Stats.Compiled != len(files) || m.Stats.Corrupt != 0 || m.Stats.Recovered != 0 {
		t.Errorf("stats compiled=%d corrupt=%d recovered=%d, want %d/0/0",
			m.Stats.Compiled, m.Stats.Corrupt, m.Stats.Recovered, len(files))
	}
	if c["store.corrupt"] != 0 || c["store.quarantined"] != 0 {
		t.Errorf("store.corrupt=%d store.quarantined=%d, want 0/0", c["store.corrupt"], c["store.quarantined"])
	}
	if _, err := os.Stat((&DirStore{Dir: dir}).QuarantineDir()); !os.IsNotExist(err) {
		t.Errorf("quarantine directory exists (%v)", err)
	}
	for _, f := range files {
		if got := readEntry(t, dir, f.Name).Bin; !bytes.Equal(got, coldBins[f.Name]) {
			t.Errorf("%s: stored bin differs from the cold build's", f.Name)
		}
	}
}
