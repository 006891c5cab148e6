package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func rec(name string, wall time.Duration, i int) Record {
	return Record{
		Schema:     Schema,
		TimeUnixNs: int64(i) * int64(time.Second),
		Name:       name,
		Policy:     "cutoff",
		Jobs:       1,
		Outcome:    OutcomeOK,
		WallNs:     int64(wall),
		Units:      3,
		UnitTimings: []obs.UnitTiming{
			{Unit: "a.sml", Action: obs.ActionCompiled, Ns: int64(wall) / 2},
			{Unit: "b.sml", Action: obs.ActionLoaded, Ns: int64(wall) / 4},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(rec("g.cm", time.Duration(100+i)*time.Millisecond, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-open, as a second process would.
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d records from a clean ledger", skipped)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.TimeUnixNs != int64(i)*int64(time.Second) {
			t.Fatalf("record %d out of order: time %d", i, r.TimeUnixNs)
		}
		if len(r.UnitTimings) != 2 || r.UnitTimings[0].Unit != "a.sml" {
			t.Fatalf("record %d lost unit timings: %+v", i, r.UnitTimings)
		}
	}
}

func TestRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.SegmentCap = 4
	l.MaxSegments = 2
	col := obs.New()
	l.Obs = col
	for i := 0; i < 20; i++ {
		if err := l.Append(rec("g.cm", time.Millisecond, i)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 2 {
		t.Fatalf("ring kept %d segments, want <= 2: %v", len(seqs), seqs)
	}
	recs, skipped, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d records", skipped)
	}
	// The ring keeps at most MaxSegments*SegmentCap records, and the
	// survivors must be the newest ones, contiguous to the tail.
	if len(recs) == 0 || len(recs) > 8 {
		t.Fatalf("got %d records after pruning, want 1..8", len(recs))
	}
	last := recs[len(recs)-1]
	if last.TimeUnixNs != 19*int64(time.Second) {
		t.Fatalf("newest record lost: tail time %d", last.TimeUnixNs)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].TimeUnixNs-recs[i-1].TimeUnixNs != int64(time.Second) {
			t.Fatalf("pruned ledger not contiguous at %d", i)
		}
	}
	if c := col.Counters(); c["history.rotations"] == 0 || c["history.appends"] != 20 {
		t.Fatalf("counters wrong: %v", c)
	}
}

func TestCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec("g.cm", time.Millisecond, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Scribble junk plus a truncated frame into the tail segment.
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json at all\n")
	f.WriteString(`{"crc":"0000000000000000","record":{"schema":"irm-history/1"}}` + "\n")
	f.WriteString(`{"crc":"dead`) // torn tail, no newline
	f.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	l2.Obs = col
	recs, skipped, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d surviving records, want 3", len(recs))
	}
	if skipped != 3 {
		t.Fatalf("skipped %d corrupt lines, want 3", skipped)
	}
	if c := col.Counters(); c["history.corrupt_skipped"] != 3 {
		t.Fatalf("corrupt_skipped counter = %d, want 3", c["history.corrupt_skipped"])
	}
	// And the healed ledger accepts new appends that read back fine.
	if err := l2.Append(rec("g.cm", time.Millisecond, 9)); err != nil {
		t.Fatal(err)
	}
	recs, _, err = l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].TimeUnixNs != 9*int64(time.Second) {
		t.Fatalf("append after heal lost: %d records", len(recs))
	}
}

func TestRegressions(t *testing.T) {
	var recs []Record
	for i := 0; i < 6; i++ {
		recs = append(recs, rec("g.cm", 100*time.Millisecond, i))
	}
	// A failed build and a different group must not pollute the baseline.
	bad := rec("g.cm", 900*time.Millisecond, 6)
	bad.Outcome = OutcomeError
	recs = append(recs, bad, rec("other.cm", 5*time.Millisecond, 7))
	slow := rec("g.cm", 200*time.Millisecond, 8)
	recs = append(recs, slow)

	regs := Regressions(recs, 10, 0.25)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	r := regs[0]
	if r.Record.TimeUnixNs != slow.TimeUnixNs {
		t.Fatalf("flagged wrong record: %+v", r.Record)
	}
	if r.BaselineNs != int64(100*time.Millisecond) {
		t.Fatalf("baseline %d, want %d", r.BaselineNs, int64(100*time.Millisecond))
	}
	if r.Ratio < 1.9 || r.Ratio > 2.1 {
		t.Fatalf("ratio %v, want ~2", r.Ratio)
	}

	// Fewer than three comparable predecessors: never a verdict.
	if regs := Regressions(recs[:3], 10, 0.25); len(regs) != 0 {
		t.Fatalf("flagged a regression with a thin baseline: %+v", regs)
	}
}

func TestTop(t *testing.T) {
	var recs []Record
	for i := 0; i < 4; i++ {
		recs = append(recs, rec("g.cm", 100*time.Millisecond, i))
	}
	top := Top(recs)
	if len(top) != 2 {
		t.Fatalf("got %d units, want 2", len(top))
	}
	if top[0].Unit != "a.sml" || top[1].Unit != "b.sml" {
		t.Fatalf("wrong order: %s, %s", top[0].Unit, top[1].Unit)
	}
	if top[0].Builds != 4 || top[0].Compiled != 4 {
		t.Fatalf("a.sml aggregation wrong: %+v", top[0])
	}
	if top[0].TotalNs != 4*int64(50*time.Millisecond) {
		t.Fatalf("a.sml total %d", top[0].TotalNs)
	}
	if top[0].ShareOfAll < 0.6 || top[0].ShareOfAll > 0.7 {
		t.Fatalf("a.sml share %v, want ~2/3", top[0].ShareOfAll)
	}
	if top[1].LastAction != obs.ActionLoaded {
		t.Fatalf("b.sml last action %q", top[1].LastAction)
	}
}

func TestFromBuild(t *testing.T) {
	rep := obs.Report{
		Schema: obs.ReportSchema, Name: "g.cm", Policy: "cutoff",
		Units: 4, Parsed: 2, Compiled: 2, Loaded: 2, Cutoffs: 1, Executed: 4,
		Counters: map[string]int64{"cache.hits": 3, "cache.misses": 1},
	}
	m := &core.Manager{Jobs: 8, UnitTimings: []obs.UnitTiming{
		{Unit: "a.sml", Action: obs.ActionCompiled, Ns: 5}}}
	now := time.Unix(1700000000, 0)
	r := FromBuild(m, rep, 2*time.Second, now, nil)
	if r.Schema != Schema || r.Outcome != OutcomeOK {
		t.Fatalf("bad envelope: %+v", r)
	}
	if r.HitRate != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", r.HitRate)
	}
	if r.Jobs != 8 || r.WallNs != int64(2*time.Second) || r.TimeUnixNs != now.UnixNano() {
		t.Fatalf("run facts lost: %+v", r)
	}
	if len(r.UnitTimings) != 1 || r.UnitTimings[0].Unit != "a.sml" {
		t.Fatalf("timings lost: %+v", r.UnitTimings)
	}
	if r.HotFunctions != nil {
		t.Fatalf("unprofiled build has hot functions: %+v", r.HotFunctions)
	}
	rf := FromBuild(&core.Manager{Jobs: 1}, rep, time.Second, now, os.ErrPermission)
	if rf.Outcome != OutcomeError || !strings.Contains(rf.Error, "permission") {
		t.Fatalf("error outcome lost: %+v", rf)
	}

	// A profiled build's record carries its hot-function table.
	pm := core.NewManager()
	pm.ProfilePeriod = 1
	if _, err := pm.Build([]core.File{{Name: "f.sml",
		Source: "fun f 0 = 0 | f n = n + f (n - 1) val x = f 50"}}); err != nil {
		t.Fatal(err)
	}
	if pr := FromBuild(pm, pm.Report("f.cm"), time.Second, now, nil); len(pr.HotFunctions) == 0 {
		t.Fatalf("profiled build's record has no hot functions: %+v", pr)
	}
}

func TestOpenHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("g.cm", time.Millisecond, 0)); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":"12`) // dangling partial line, no newline
	f.Close()

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("Open did not terminate the torn tail")
	}
	if err := l2.Append(rec("g.cm", time.Millisecond, 1)); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("got %d records / %d skipped, want 2 / 1", len(recs), skipped)
	}
}

var _ core.FS = core.OSFS{} // the ledger's default filesystem
