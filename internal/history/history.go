// Package history is the IRM's build-history ledger: an append-only,
// crash-safe ring of JSONL segments under `.irm/history/`, holding one
// summary record per build — counters delta, per-unit timings, cache
// hit rate, outcome. Where internal/obs makes a single build
// explainable while the process lives, the ledger makes the *sequence*
// of builds explainable after every process has exited: `irm history`
// renders the trend and flags regressions against the trailing median,
// `irm top` aggregates the per-unit cost series, and `irm serve`
// exposes the records at /builds.
//
// Durability model (the bin-file store's, adapted to an append log):
// every line is framed as {"crc":"<crc64-ecma hex>","record":{...}}
// with the CRC taken over the record's exact bytes, appended with a
// single O_APPEND write and fsynced through core.FS — so a torn write
// can only damage the final line, never a prior record. Readers skip
// lines that fail framing or CRC validation; Open terminates a
// dangling partial line so later appends cannot fuse with it. Segments
// rotate at SegmentCap records and the ring keeps MaxSegments
// segments, bounding the ledger's size for long-lived stores.
//
// Concurrency: a Ledger serializes its own appends with an internal
// mutex, so one process may share a Ledger across goroutines;
// cross-process appends rely on O_APPEND atomicity for whole lines,
// and readers tolerate (skip) any interleaving the kernel permits.
package history

import (
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
)

// Schema identifies the ledger record format.
const Schema = "irm-history/1"

// Outcomes.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Record summarizes one build.
type Record struct {
	Schema     string `json:"schema"`
	TimeUnixNs int64  `json:"time_unix_ns"`
	Name       string `json:"name"`    // group or program name
	Policy     string `json:"policy"`  // recompilation policy
	Jobs       int    `json:"jobs"`    // scheduler width (0 = per-core)
	Outcome    string `json:"outcome"` // OutcomeOK or OutcomeError
	Error      string `json:"error,omitempty"`
	WallNs     int64  `json:"wall_ns"`

	Units    int `json:"units"`
	Parsed   int `json:"parsed"`
	Compiled int `json:"compiled"`
	Loaded   int `json:"loaded"`
	Cutoffs  int `json:"cutoffs"`
	Executed int `json:"executed"`

	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"` // hits / (hits+misses), 0 when no lookups

	// Counters is the build's raw counter delta (the -report json
	// counters object), so any registry counter is trendable without a
	// schema change.
	Counters map[string]int64 `json:"counters,omitempty"`
	// UnitTimings is the per-unit wall-time series of the build.
	UnitTimings []obs.UnitTiming `json:"unit_timings,omitempty"`
	// HotFunctions, for profiled builds, is the build's hot-function
	// table (the top of the merged prof.Profile): what `irm top -by fn`
	// aggregates across records.
	HotFunctions []prof.Func `json:"hot_functions,omitempty"`
}

// FromBuild assembles a ledger record for the most recent build of m
// from its machine-readable report, the Manager's worker count, unit
// timings and (for a profiled build) hot-function table, plus the run
// facts only the caller knows: wall time, the clock, the build error.
func FromBuild(m *core.Manager, rep obs.Report, wall time.Duration,
	now time.Time, buildErr error) Record {

	r := Record{
		Schema:     Schema,
		TimeUnixNs: now.UnixNano(),
		Name:       rep.Name,
		Policy:     rep.Policy,
		Jobs:       m.Jobs,
		Outcome:    OutcomeOK,
		WallNs:     int64(wall),
		Units:      rep.Units,
		Parsed:     rep.Parsed,
		Compiled:   rep.Compiled,
		Loaded:     rep.Loaded,
		Cutoffs:    rep.Cutoffs,
		Executed:   rep.Executed,
		CacheHits:  rep.Counters["cache.hits"],
		Counters:   rep.Counters,
	}
	r.CacheMisses = rep.Counters["cache.misses"]
	if lookups := r.CacheHits + r.CacheMisses; lookups > 0 {
		r.HitRate = float64(r.CacheHits) / float64(lookups)
	}
	if buildErr != nil {
		r.Outcome = OutcomeError
		r.Error = buildErr.Error()
	}
	r.UnitTimings = append([]obs.UnitTiming(nil), m.UnitTimings...)
	if m.Prof != nil {
		r.HotFunctions = m.Prof.Top(20)
	}
	return r
}

// Ledger is the on-disk ring. Zero-value fields take defaults at Open.
type Ledger struct {
	Dir string
	// FS is the filesystem the ledger writes through; internal/faultfs
	// substitutes a fault-injecting one in the crash suite.
	FS core.FS
	// Obs, when non-nil, receives the history.* counters.
	Obs obs.Recorder
	// SegmentCap is how many records one segment holds before the ring
	// rotates (default 128); MaxSegments how many segments the ring
	// keeps (default 8, oldest pruned first).
	SegmentCap  int
	MaxSegments int

	mu    sync.Mutex
	seq   int // current segment sequence number
	count int // lines already in the current segment
}

const segPrefix = "seg-"

func segName(seq int) string { return fmt.Sprintf("%s%08d.jsonl", segPrefix, seq) }

// segSeq parses a segment filename, reporting ok=false for foreign
// files.
func segSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	var seq int
	if _, err := fmt.Sscanf(name, segPrefix+"%08d.jsonl", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open creates (or re-opens) the ledger rooted at dir. A dangling
// partial line left by a crashed appender is terminated so it can
// never fuse with the next record; it then reads (and skips) as one
// corrupt line.
func Open(dir string, fsys core.FS) (*Ledger, error) {
	if fsys == nil {
		fsys = core.OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: creating ledger dir: %v", err)
	}
	l := &Ledger{Dir: dir, FS: fsys, SegmentCap: 128, MaxSegments: 8}
	seqs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		l.seq = seqs[len(seqs)-1]
		data, err := fsys.ReadFile(filepath.Join(dir, segName(l.seq)))
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("history: reading tail segment: %v", err)
		}
		l.count = strings.Count(string(data), "\n")
		if len(data) > 0 && data[len(data)-1] != '\n' {
			// Heal a torn tail: terminate the partial line in place.
			if err := l.append(segName(l.seq), []byte("\n")); err == nil {
				l.count++
			}
		}
	}
	return l, nil
}

// segments lists the ring's segment sequence numbers, ascending.
func (l *Ledger) segments() ([]int, error) {
	entries, err := l.FS.ReadDir(l.Dir)
	if err != nil {
		return nil, fmt.Errorf("history: listing ledger dir: %v", err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

var ledgerCRC = crc64.MakeTable(crc64.ECMA)

// frame wraps one record's JSON bytes in the CRC envelope line.
func frame(recJSON []byte) []byte {
	line := make([]byte, 0, len(recJSON)+32)
	line = append(line, `{"crc":"`...)
	line = append(line, fmt.Sprintf("%016x", crc64.Checksum(recJSON, ledgerCRC))...)
	line = append(line, `","record":`...)
	line = append(line, recJSON...)
	line = append(line, '}', '\n')
	return line
}

// envelope is the parsed frame; Record keeps the exact bytes the CRC
// covers.
type envelope struct {
	CRC    string          `json:"crc"`
	Record json.RawMessage `json:"record"`
}

// unframe validates one line, returning the decoded record.
func unframe(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, err
	}
	if got := fmt.Sprintf("%016x", crc64.Checksum(env.Record, ledgerCRC)); got != env.CRC {
		return Record{}, fmt.Errorf("history: record checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(env.Record, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// append writes data to the named segment with a single O_APPEND write
// and fsyncs it.
func (l *Ledger) append(name string, data []byte) error {
	f, err := l.FS.OpenFile(filepath.Join(l.Dir, name),
		os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Append files one build record at the ring's tail, rotating and
// pruning segments as configured. An append failure never damages
// prior records (the write is a single O_APPEND line); it is reported
// to the caller and counted, and the next append retries the same
// segment.
func (l *Ledger) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Schema == "" {
		rec.Schema = Schema
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		obs.Count(l.Obs, "history.append_errors", 1)
		return fmt.Errorf("history: encoding record: %v", err)
	}
	if l.count >= l.segCap() {
		l.seq++
		l.count = 0
		obs.Count(l.Obs, "history.rotations", 1)
		l.prune()
	}
	if err := l.append(segName(l.seq), frame(recJSON)); err != nil {
		obs.Count(l.Obs, "history.append_errors", 1)
		return fmt.Errorf("history: appending record: %v", err)
	}
	l.count++
	// Make the (possibly new) segment durable by name as the bin store
	// does after a rename; a failure here costs durability of the
	// directory entry only, never the framing.
	l.FS.SyncDir(l.Dir)
	obs.Count(l.Obs, "history.appends", 1)
	return nil
}

func (l *Ledger) segCap() int {
	if l.SegmentCap > 0 {
		return l.SegmentCap
	}
	return 128
}

func (l *Ledger) maxSegs() int {
	if l.MaxSegments > 0 {
		return l.MaxSegments
	}
	return 8
}

// prune drops the oldest segments beyond the ring's capacity.
func (l *Ledger) prune() {
	seqs, err := l.segments()
	if err != nil {
		return
	}
	keepFrom := l.seq - l.maxSegs() + 1
	for _, seq := range seqs {
		if seq < keepFrom {
			if l.FS.Remove(filepath.Join(l.Dir, segName(seq))) == nil {
				obs.Count(l.Obs, "history.pruned", 1)
			}
		}
	}
}

// ReadAll returns every surviving record, oldest first, plus the
// number of lines skipped as corrupt (torn tails, bit rot, foreign
// junk). A missing ledger reads as empty.
func (l *Ledger) ReadAll() ([]Record, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, err := l.segments()
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	skipped := 0
	for _, seq := range seqs {
		data, err := l.FS.ReadFile(filepath.Join(l.Dir, segName(seq)))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return recs, skipped, fmt.Errorf("history: reading segment %d: %v", seq, err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			rec, err := unframe([]byte(line))
			if err != nil {
				skipped++
				obs.Count(l.Obs, "history.corrupt_skipped", 1)
				continue
			}
			recs = append(recs, rec)
		}
	}
	return recs, skipped, nil
}

// FilterSince returns the records stamped at or after cutoff,
// preserving order — the `-since 30m` view of `irm history` and
// `irm top`.
func FilterSince(recs []Record, cutoff time.Time) []Record {
	ns := cutoff.UnixNano()
	var out []Record
	for _, r := range recs {
		if r.TimeUnixNs >= ns {
			out = append(out, r)
		}
	}
	return out
}

// Regression marks one record whose wall time exceeded the trailing
// median of comparable predecessors by more than the threshold.
type Regression struct {
	Index      int     // position in the record slice handed to Regressions
	Record     Record  `json:"record"`
	BaselineNs int64   `json:"baseline_ns"` // trailing median wall time
	Ratio      float64 `json:"ratio"`       // record wall / baseline
}

// Regressions scans records (oldest first) and flags builds whose wall
// time exceeds the trailing median of the previous `window` successful
// builds of the same name and policy by more than threshold (0.25 =
// 25% slower). At least three prior comparable builds are required
// before a verdict — a fresh store's cold build is not a regression.
func Regressions(recs []Record, window int, threshold float64) []Regression {
	if window <= 0 {
		window = 10
	}
	var out []Regression
	for i, rec := range recs {
		if rec.Outcome != OutcomeOK {
			continue
		}
		var trail []int64
		for j := i - 1; j >= 0 && len(trail) < window; j-- {
			p := recs[j]
			if p.Outcome == OutcomeOK && p.Name == rec.Name && p.Policy == rec.Policy {
				trail = append(trail, p.WallNs)
			}
		}
		if len(trail) < 3 {
			continue
		}
		base := median(trail)
		if base <= 0 {
			continue
		}
		if ratio := float64(rec.WallNs) / float64(base); ratio > 1+threshold {
			out = append(out, Regression{Index: i, Record: rec, BaselineNs: base, Ratio: ratio})
		}
	}
	return out
}

func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TopUnit is one unit's aggregated cost across a set of records.
type TopUnit struct {
	Unit       string  `json:"unit"`
	Builds     int     `json:"builds"`      // records the unit appears in
	Compiled   int     `json:"compiled"`    // appearances with action "compiled"
	TotalNs    int64   `json:"total_ns"`    // summed wall time
	MaxNs      int64   `json:"max_ns"`      // worst single build
	MeanNs     int64   `json:"mean_ns"`     // total / builds
	LastAction string  `json:"last_action"` // action in the newest record
	ShareOfAll float64 `json:"share"`       // total vs. all units' total
}

// Top aggregates per-unit timings across records and returns units
// sorted by total cost, most expensive first.
func Top(recs []Record) []TopUnit {
	agg := map[string]*TopUnit{}
	var grand int64
	for _, rec := range recs {
		for _, ut := range rec.UnitTimings {
			a := agg[ut.Unit]
			if a == nil {
				a = &TopUnit{Unit: ut.Unit}
				agg[ut.Unit] = a
			}
			a.Builds++
			if ut.Action == obs.ActionCompiled {
				a.Compiled++
			}
			a.TotalNs += ut.Ns
			if ut.Ns > a.MaxNs {
				a.MaxNs = ut.Ns
			}
			a.LastAction = ut.Action
			grand += ut.Ns
		}
	}
	out := make([]TopUnit, 0, len(agg))
	for _, a := range agg {
		if a.Builds > 0 {
			a.MeanNs = a.TotalNs / int64(a.Builds)
		}
		if grand > 0 {
			a.ShareOfAll = float64(a.TotalNs) / float64(grand)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}

// TopExec is one unit's aggregated execution cost across records: the
// execute-phase slice of its wall time plus its interpreter steps,
// from the extended UnitTiming fields.
type TopExec struct {
	Unit       string  `json:"unit"`
	Builds     int     `json:"builds"`
	TotalNs    int64   `json:"exec_total_ns"`
	MaxNs      int64   `json:"exec_max_ns"`
	MeanNs     int64   `json:"exec_mean_ns"`
	Steps      uint64  `json:"steps"`
	ShareOfAll float64 `json:"share"` // of all units' exec time
}

// TopByExec aggregates the execute-phase timings across records,
// sorted by total execution time, most expensive first. Records
// written before the exec fields existed contribute zeros.
func TopByExec(recs []Record) []TopExec {
	agg := map[string]*TopExec{}
	var grand int64
	for _, rec := range recs {
		for _, ut := range rec.UnitTimings {
			a := agg[ut.Unit]
			if a == nil {
				a = &TopExec{Unit: ut.Unit}
				agg[ut.Unit] = a
			}
			a.Builds++
			a.TotalNs += ut.ExecNs
			if ut.ExecNs > a.MaxNs {
				a.MaxNs = ut.ExecNs
			}
			a.Steps += ut.Steps
			grand += ut.ExecNs
		}
	}
	out := make([]TopExec, 0, len(agg))
	for _, a := range agg {
		if a.Builds > 0 {
			a.MeanNs = a.TotalNs / int64(a.Builds)
		}
		if grand > 0 {
			a.ShareOfAll = float64(a.TotalNs) / float64(grand)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}

// TopFn is one SML function's aggregated profile across records'
// hot-function tables.
type TopFn struct {
	Unit       string  `json:"unit"`
	Name       string  `json:"name"`
	Builds     int     `json:"builds"`
	Applies    int64   `json:"applies"`
	SelfSteps  int64   `json:"self_steps"`
	Allocs     int64   `json:"allocs"`
	Samples    int64   `json:"samples"`
	ShareOfAll float64 `json:"share"` // of all functions' self-steps
}

// TopFuncs aggregates hot-function rows across profiled records,
// sorted by total self-steps, hottest first. Unprofiled records
// contribute nothing.
func TopFuncs(recs []Record) []TopFn {
	type key struct{ unit, name string }
	agg := map[key]*TopFn{}
	var grand int64
	for _, rec := range recs {
		for _, f := range rec.HotFunctions {
			k := key{f.Unit, f.Name}
			a := agg[k]
			if a == nil {
				a = &TopFn{Unit: f.Unit, Name: f.Name}
				agg[k] = a
			}
			a.Builds++
			a.Applies += f.Applies
			a.SelfSteps += f.SelfSteps
			a.Allocs += f.Allocs
			a.Samples += f.LeafSamples
			grand += f.SelfSteps
		}
	}
	out := make([]TopFn, 0, len(agg))
	for _, a := range agg {
		if grand > 0 {
			a.ShareOfAll = float64(a.SelfSteps) / float64(grand)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfSteps != out[j].SelfSteps {
			return out[i].SelfSteps > out[j].SelfSteps
		}
		if out[i].Unit != out[j].Unit {
			return out[i].Unit < out[j].Unit
		}
		return out[i].Name < out[j].Name
	})
	return out
}
