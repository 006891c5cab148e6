// Golden pin of the bin-file format and the intrinsic-pid computation
// (DESIGN.md §4f): every unit of the fixed workload.GoldenCorpus must
// produce exactly the pid, bin-content hash, and bin length recorded
// in testdata/binfile_golden.json — at every scheduler width. The file
// is regenerated only deliberately, via `go run ./scripts/bingolden`.
package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/pickle"
	"repro/internal/pid"
	"repro/internal/workload"
)

// goldenUnit mirrors scripts/bingolden's record.
type goldenUnit struct {
	Project string `json:"project"`
	Name    string `json:"name"`
	StatPid string `json:"stat_pid"`
	BinHash string `json:"bin_hash"`
	BinLen  int    `json:"bin_len"`
}

func loadGolden(t *testing.T) map[string]goldenUnit {
	t.Helper()
	data, err := os.ReadFile("testdata/binfile_golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var units []goldenUnit
	if err := json.Unmarshal(data, &units); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	byKey := make(map[string]goldenUnit, len(units))
	for _, u := range units {
		byKey[u.Project+"/"+u.Name] = u
	}
	return byKey
}

// TestBinfileGolden builds the corpus at several worker widths and
// checks every bin file and pid against the golden record: the
// single-pass pickle+hash must be byte-for-byte the two-pass encoding,
// and the parallel scheduler must not perturb a single output byte.
func TestBinfileGolden(t *testing.T) {
	golden := loadGolden(t)
	corpus := workload.GoldenCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, jobs := range []int{1, 8} {
		seen := 0
		for _, pname := range names {
			p := corpus[pname]
			store := core.NewMemStore()
			m := core.NewManager()
			m.Store = store
			m.Jobs = jobs
			// A private cache keeps the run self-contained; outputs must
			// not depend on cache state either way.
			m.EnvCache = pickle.NewEnvCache(0)
			if _, err := m.Build(p.Files); err != nil {
				t.Fatalf("jobs=%d %s: %v", jobs, pname, err)
			}
			for _, f := range p.Files {
				e, err := store.Load(f.Name)
				if err != nil || e == nil {
					t.Fatalf("jobs=%d %s/%s: missing entry (%v)", jobs, pname, f.Name, err)
				}
				want, ok := golden[pname+"/"+f.Name]
				if !ok {
					t.Fatalf("%s/%s: not in golden file (regenerate with scripts/bingolden?)",
						pname, f.Name)
				}
				if got := e.StatPid.String(); got != want.StatPid {
					t.Errorf("jobs=%d %s/%s: stat pid %s, golden %s",
						jobs, pname, f.Name, got, want.StatPid)
				}
				if got := pid.HashBytes(e.Bin).String(); got != want.BinHash {
					t.Errorf("jobs=%d %s/%s: bin hash %s, golden %s (len %d vs %d)",
						jobs, pname, f.Name, got, want.BinHash, len(e.Bin), want.BinLen)
				}
				if len(e.Bin) != want.BinLen {
					t.Errorf("jobs=%d %s/%s: bin length %d, golden %d",
						jobs, pname, f.Name, len(e.Bin), want.BinLen)
				}
				seen++
			}
		}
		if seen != len(golden) {
			t.Errorf("jobs=%d: corpus has %d units, golden file %d", jobs, seen, len(golden))
		}
	}
}

// TestSlabDecodedTermsRepickle loads every corpus unit back from its bin
// — the compiled form rebuilt with shared leaf closures from a scratch-
// decoded term, the unit keeping only the term's bytes — and re-encodes
// it through Unit.Term, which decodes the term into the unit's own
// slab: the bytes must equal the stored bin exactly, so the slab
// decoder reproduces every node, field order and binder list the
// pickler wrote.
func TestSlabDecodedTermsRepickle(t *testing.T) {
	corpus := workload.GoldenCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, pname := range names {
		p := corpus[pname]
		store := core.NewMemStore()
		build := func() (*compiler.Session, *core.Manager) {
			m := core.NewManager()
			m.Store = store
			m.EnvCache = pickle.NewEnvCache(0)
			s, err := m.Build(p.Files)
			if err != nil {
				t.Fatalf("%s: %v", pname, err)
			}
			return s, m
		}
		build()
		s, m := build()
		if m.Stats.Loaded != len(p.Files) {
			t.Fatalf("%s: warm build loaded %d of %d units", pname, m.Stats.Loaded, len(p.Files))
		}
		units := make(map[string]*compiler.Unit, len(s.Units))
		for _, u := range s.Units {
			units[u.Name] = u
		}
		for _, f := range p.Files {
			u, ok := units[f.Name]
			if !ok {
				t.Fatalf("%s/%s: not in the warm session", pname, f.Name)
			}
			e, err := store.Load(f.Name)
			if err != nil || e == nil {
				t.Fatalf("%s/%s: missing entry (%v)", pname, f.Name, err)
			}
			if u.Code != nil || u.Term() == nil {
				t.Fatalf("%s/%s: loaded unit keeps a term (%v) or Term() cannot decode one",
					pname, u.Name, u.Code != nil)
			}
			got, err := binfile.Encode(u)
			if err != nil {
				t.Fatalf("%s/%s: re-encode: %v", pname, u.Name, err)
			}
			if !bytes.Equal(got, e.Bin) {
				t.Errorf("%s/%s: re-encoded bin differs from the stored one (%d vs %d bytes)",
					pname, u.Name, len(got), len(e.Bin))
			}
		}
	}
}
