package core

// Format downgrades: the store reads one entry format (SMLIRM02, with
// a CRC-64 trailer) and one bin format (SMLIRM02 entries carry
// binfile.Magic bins). An entry or bin relabelled with a retired magic is corrupt,
// never a way to skip the checksum: the build quarantines or discards
// it, recompiles, and prints what a cold build prints.

import (
	"bytes"
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

// TestLegacyBinMagicRecompiled stores a valid SMLIRM02 entry whose bin
// is relabelled with each retired bin magic: SMLBIN01 (no code
// section) and SMLBIN02 (the code section of the eta-expanded
// primitive call). The bin must fail to load and its unit be
// recompiled, counted corrupt; output and every stored bin then equal
// a cold build's.
func TestLegacyBinMagicRecompiled(t *testing.T) {
	files := []File{
		{Name: "a.sml", Source: "structure A = struct val n = 424242 end"},
		{Name: "b.sml", Source: "val _ = print (Int.toString A.n ^ \"\\n\")"},
	}
	for _, magic := range []string{"SMLBIN01", "SMLBIN02"} {
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
			if m.Stats.Compiled != 1 || m.Stats.Corrupt != 1 || m.Stats.Recovered != 1 {
				t.Errorf("stats compiled=%d corrupt=%d recovered=%d, want 1/1/1",
					m.Stats.Compiled, m.Stats.Corrupt, m.Stats.Recovered)
			}
			// The entry's checksum holds, so the explain record names
			// the bin, not the entry (obs.ReasonBinUnreadable); the
			// counters still count the unit corrupt and recovered.
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
