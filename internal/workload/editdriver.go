package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// ---------------------------------------------------------------------
// Scripted edit sessions
// ---------------------------------------------------------------------
//
// ApplyEdit is the one edit generator: Project.Edit applies it to the
// pristine project, and EditDriver composes it over a watch session,
// where hundreds of edits accumulate in the same working tree. Every
// insertion lands immediately after a marker line that the insertion
// itself leaves intact, so edit N+1 applies cleanly to the output of
// edit N for any interleaving of kinds.

// ApplyEdit returns src with one edit of the given kind applied to unit
// i. gen must be unique across the session (the driver uses its edit
// sequence number): it uniquifies the inserted identifiers so repeated
// edits never collide.
func ApplyEdit(src string, i int, kind EditKind, gen int) string {
	switch kind {
	case CommentEdit:
		return fmt.Sprintf("(* edit generation %d *)\n%s", gen, src)
	case ImplEdit:
		// New hidden helper after the tag binding: thinned away by the
		// ascription, so the interface pid is unchanged.
		marker := fmt.Sprintf("  val tag = \"u%03d\"\n", i)
		insert := fmt.Sprintf("  fun edited%d (x : int) = x + %d\n", gen, gen)
		return insertAfter(src, marker, insert, gen)
	case InterfaceEdit:
		// New exported value: the signature and the structure both grow
		// a member, so the interface pid must change.
		sigMarker := "  val tag : string\n"
		strMarker := fmt.Sprintf("  val tag = \"u%03d\"\n", i)
		src = insertAfter(src, sigMarker, fmt.Sprintf("  val extra%d : int\n", gen), gen)
		src = insertAfter(src, strMarker, fmt.Sprintf("  val extra%d = %d\n", gen, gen), gen)
		return src
	}
	return src
}

func insertAfter(src, marker, insert string, gen int) string {
	if idx := strings.Index(src, marker); idx >= 0 {
		at := idx + len(marker)
		return src[:at] + insert + src[at:]
	}
	return src + fmt.Sprintf("\n(* edit fallback %d *)\n", gen)
}

// ScriptedEdit records one applied edit of a driver session.
type ScriptedEdit struct {
	Seq  int      // 1-based sequence number within the session
	Unit int      // index of the edited unit
	Kind EditKind // what kind of edit was applied
}

// EditDriver applies a deterministic pseudo-random edit stream to a
// materialized project directory — the scripted "developer" of the
// watch-mode tests and the CI watch-smoke job. The stream is a pure
// function of (units, seed): two drivers with the same parameters
// produce byte-identical working trees after N edits, which is what
// lets the tests replay a session against a cold build for comparison.
//
// The kind mix is weighted toward the cheap end (comment and
// implementation edits outnumber interface edits roughly 4:1), matching
// the edit profile the paper's cutoff argument is about.
type EditDriver struct {
	Dir   string // materialized project directory
	Units int    // number of units (files named UnitName(i))
	rng   *rand.Rand
	seq   int
}

// NewEditDriver returns a driver over a directory previously filled by
// Project.Materialize.
func NewEditDriver(dir string, units int, seed int64) *EditDriver {
	return &EditDriver{Dir: dir, Units: units, rng: rand.New(rand.NewSource(seed))}
}

// Plan returns the next edit of the stream without applying it —
// callers comparing two streams use it to avoid touching disk.
func (d *EditDriver) Plan() ScriptedEdit {
	unit := d.rng.Intn(d.Units)
	var kind EditKind
	switch r := d.rng.Intn(10); {
	case r < 4:
		kind = ImplEdit
	case r < 8:
		kind = CommentEdit
	default:
		kind = InterfaceEdit
	}
	d.seq++
	return ScriptedEdit{Seq: d.seq, Unit: unit, Kind: kind}
}

// Next applies the next edit of the stream to the working tree and
// returns it. The write is a plain truncate-and-write (not atomic) —
// deliberately so, since that is what editors do and what the watch
// loop's debounce has to absorb.
func (d *EditDriver) Next() (ScriptedEdit, error) {
	e := d.Plan()
	path := filepath.Join(d.Dir, UnitName(e.Unit))
	src, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	out := ApplyEdit(string(src), e.Unit, e.Kind, e.Seq)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return e, err
	}
	return e, nil
}
