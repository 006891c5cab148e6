// Package watch is the IRM's continuous rebuild loop: a long-lived
// session that polls a group's source files for changes and runs every
// detected edit through the ordinary incremental build pipeline, so a
// developer's edit→rebuild latency becomes a measured, exported
// distribution instead of folklore.
//
// The loop is deliberately thin. It does not compile anything itself:
// each iteration re-reads only the files whose (mtime, size) signature
// moved and hands the whole group to core.Manager — source-hash gating
// skips re-parsing unchanged units, and the interface-pid cutoff rule
// (the paper's §6) bounds recompilation to the semantic change. Because
// the inputs handed to the Manager are exactly the on-disk sources, an
// iteration's bin files, Stats, and explain records are byte-identical
// to a cold `irm build` of the same tree at any -j (see DESIGN.md §4h
// for the argument).
//
// All file I/O — polling stats, source re-reads, group reloads — goes
// through core.FS, so internal/faultfs can inject crashes, torn writes,
// bit flips, and ENOSPC at every point of a watch iteration just as it
// does for a single build.
//
// Every iteration is observable: a `watch` root span wraps the build's
// trace, the watch.* counters count the loop's work, the edit→rebuild
// latency lands in the watch.latency_seconds histogram (a native
// Prometheus histogram on /metrics, quantiles in the irm-watch/1
// report), the build-history ledger gains one record, and subscribers
// of a Hub receive one Event (the /watch SSE feed).
//
// Concurrency: a Watcher is single-threaded — Run owns the poll loop
// and runs builds sequentially on its own goroutine; only Report and
// the Hub are meant to be touched from outside while Run is live. A Hub
// is safe for concurrent use. The Watcher's Collector is shared with
// the Manager and may be scraped concurrently (obs.Collector is
// thread-safe).
package watch

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
)

// EventSchema identifies the per-iteration event format published to
// hub subscribers and the /watch SSE feed.
const EventSchema = "irm-watch-event/1"

// LatencyHist is the collector histogram holding edit-detected→rebuilt
// latencies, in seconds. It exports on /metrics as
// irm_watch_latency_seconds{_bucket,_sum,_count}.
const LatencyHist = "watch.latency_seconds"

// CatWatch is the span category of the per-iteration root span; the
// iteration's build span (and its unit/phase tree) nests under it.
const CatWatch = "watch"

// Outcomes of an iteration (aligned with the history ledger's).
const (
	OutcomeOK    = history.OutcomeOK
	OutcomeError = history.OutcomeError
)

// Event is the public record of one watch iteration. Seq 0 is the
// session's initial build; its LatencyNs is zero (nothing was edited).
type Event struct {
	Schema     string   `json:"schema"`
	Seq        int      `json:"seq"`
	TimeUnixNs int64    `json:"time_unix_ns"`
	Changed    []string `json:"changed,omitempty"` // unit names that triggered the rebuild
	Outcome    string   `json:"outcome"`
	Error      string   `json:"error,omitempty"`
	LatencyNs  int64    `json:"latency_ns"` // edit detected → rebuild done
	WallNs     int64    `json:"wall_ns"`    // the build alone
	Compiled   int      `json:"compiled"`
	Loaded     int      `json:"loaded"`
	Cutoffs    int      `json:"cutoffs"`
}

// Options configures a Watcher. Manager and GroupPath are required;
// everything else has a usable zero value.
type Options struct {
	// FS is the filesystem polled and read; nil means the real one. Use
	// the same FS as the Manager's store to fault-inject the whole loop.
	FS core.FS
	// Manager runs each iteration's build. Its Store must not
	// re-acquire the store lock per build when the caller already holds
	// it for the session — see core.Unlocked.
	Manager *core.Manager
	// GroupPath is the group (.cm) file naming the sources.
	GroupPath string
	// Col receives spans, counters, and the latency histogram; nil
	// means a private collector. Attach the same collector to the
	// Manager and its store to fold everything into one stream.
	Col *obs.Collector
	// Ledger, when non-nil, gains one record per iteration.
	Ledger *history.Ledger
	// Hub, when non-nil, receives one Event per iteration.
	Hub *Hub
	// Poll is the idle polling period (default 200ms); Debounce is how
	// long the tree must be quiet after a change before rebuilding
	// (default 50ms) — an editor's burst of writes coalesces into one
	// iteration.
	Poll     time.Duration
	Debounce time.Duration
	// MaxBuilds, when > 0, stops the watcher after that many rebuild
	// iterations (the initial build is not counted).
	MaxBuilds int
	// Log, when non-nil, receives one line per iteration.
	Log io.Writer
}

// fileSig is the change-detection signature of one polled file.
type fileSig struct {
	size  int64
	mtime int64
	ok    bool // stat succeeded
}

// Watcher is one live watch session.
type Watcher struct {
	opt   Options
	fsys  core.FS
	col   *obs.Collector
	files []core.File        // current group, in group order
	sigs  map[string]fileSig // path → last seen signature
	seq   int                // iterations completed (0 after initial build)
	// baselined flips after the first poll: from then on a path whose
	// signature was never recorded (its baseline stat failed, or refresh
	// evicted it after a read error) counts as changed the moment a stat
	// succeeds, so an edit hiding behind a transient poll error is
	// detected instead of silently re-baselined.
	baselined bool

	before map[string]int64 // counter snapshot at session start, for Report
}

// New validates the options and returns a Watcher (no I/O yet; Run
// loads the group).
func New(opt Options) (*Watcher, error) {
	if opt.Manager == nil {
		return nil, fmt.Errorf("watch: Options.Manager is required")
	}
	if opt.GroupPath == "" {
		return nil, fmt.Errorf("watch: Options.GroupPath is required")
	}
	if opt.Poll <= 0 {
		opt.Poll = 200 * time.Millisecond
	}
	if opt.Debounce <= 0 {
		opt.Debounce = 50 * time.Millisecond
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = core.OSFS{}
	}
	col := opt.Col
	if col == nil {
		col = obs.New()
	}
	// The Manager must report into the session collector, or the watch
	// counters and the build counters would land in different streams.
	opt.Manager.Obs = col
	return &Watcher{
		opt:    opt,
		fsys:   fsys,
		col:    col,
		sigs:   map[string]fileSig{},
		before: col.Counters(),
	}, nil
}

// Collector returns the session's collector (for /metrics scraping).
// Each iteration prunes its spans and explain records when it ends.
func (w *Watcher) Collector() *obs.Collector { return w.col }

// Run executes the session: an initial build, then the poll loop, until
// ctx is cancelled or MaxBuilds rebuilds have run. A failing build does
// not stop the loop — the error is published, ledgered, and counted,
// and the next edit gets a fresh chance. Run returns a non-nil error
// only when the session cannot start at all (unreadable group file).
func (w *Watcher) Run(ctx context.Context) error {
	if err := w.reloadGroup(); err != nil {
		return fmt.Errorf("watch: loading group: %v", err)
	}
	w.pollAll() // baseline signatures; counts as the first poll
	w.baselined = true
	w.iterate(nil, time.Time{})

	rebuilds := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(w.opt.Poll):
		}
		changed := w.pollAll()
		if len(changed) == 0 {
			continue
		}
		detected := time.Now()
		changed = w.debounce(ctx, changed)
		if ctx.Err() != nil {
			return nil
		}
		if !w.refresh(changed) {
			continue // transient read failure; the next poll retries
		}
		w.iterate(changed, detected)
		rebuilds++
		if w.opt.MaxBuilds > 0 && rebuilds >= w.opt.MaxBuilds {
			return nil
		}
	}
}

// pollAll stats every watched path (the group file plus each source)
// and returns the paths whose signature moved since the last poll,
// updating the stored signatures. A failed stat counts as a poll error
// and leaves the old signature in place, so a file mid-rewrite is seen
// on a later round rather than half-read now.
func (w *Watcher) pollAll() []string {
	paths := w.watchedPaths()
	obs.Count(w.col, "watch.files_polled", int64(len(paths)))
	var changed []string
	for _, p := range paths {
		fi, err := w.fsys.Stat(p)
		if err != nil {
			obs.Count(w.col, "watch.poll_errors", 1)
			continue
		}
		sig := fileSig{size: fi.Size(), mtime: fi.ModTime().UnixNano(), ok: true}
		if old, seen := w.sigs[p]; !seen || old != sig {
			if seen || w.baselined {
				changed = append(changed, p)
			}
			w.sigs[p] = sig
		}
	}
	return changed
}

func (w *Watcher) watchedPaths() []string {
	paths := make([]string, 0, len(w.files)+1)
	paths = append(paths, w.opt.GroupPath)
	for _, f := range w.files {
		if f.Path != "" {
			paths = append(paths, f.Path)
		}
	}
	return paths
}

// debounce waits for the tree to go quiet: after a change is detected
// it keeps re-polling every Debounce interval, folding new changes into
// the set, until one round sees none (or ctx ends). A hard cap bounds
// the wait under a pathological writer that never pauses.
func (w *Watcher) debounce(ctx context.Context, changed []string) []string {
	set := map[string]bool{}
	for _, p := range changed {
		set[p] = true
	}
	for round := 0; round < 50 && ctx.Err() == nil; round++ {
		select {
		case <-ctx.Done():
		case <-time.After(w.opt.Debounce):
		}
		if ctx.Err() != nil {
			break
		}
		more := w.pollAll()
		if len(more) == 0 {
			break
		}
		obs.Count(w.col, "watch.debounced", 1)
		for _, p := range more {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for _, f := range w.files {
		if set[f.Path] {
			out = append(out, f.Path)
		}
	}
	if set[w.opt.GroupPath] {
		out = append(out, w.opt.GroupPath)
	}
	return out
}

// refresh re-reads exactly the changed sources (or reloads the whole
// group when the group file itself changed), reporting whether the
// in-memory tree is now consistent. On a read failure the stale
// signature is evicted so the next poll re-detects the file.
func (w *Watcher) refresh(changed []string) bool {
	for _, p := range changed {
		if p == w.opt.GroupPath {
			if err := w.reloadGroup(); err != nil {
				obs.Count(w.col, "watch.poll_errors", 1)
				delete(w.sigs, p)
				return false
			}
			return true // reload re-read every source already
		}
	}
	byPath := map[string]int{}
	for i, f := range w.files {
		byPath[f.Path] = i
	}
	for _, p := range changed {
		i, ok := byPath[p]
		if !ok {
			continue
		}
		src, err := w.fsys.ReadFile(p)
		if err != nil {
			obs.Count(w.col, "watch.poll_errors", 1)
			delete(w.sigs, p)
			return false
		}
		w.files[i].Source = string(src)
	}
	return true
}

// reloadGroup (re)loads the group file and every source through the
// session FS.
func (w *Watcher) reloadGroup() error {
	g, err := core.LoadGroupFS(w.opt.GroupPath, w.fsys)
	if err != nil {
		return err
	}
	w.files = g.Files
	return nil
}

// iterate runs one build of the current tree under a `watch` root span
// and fans the result out to the histogram, the counters, the ledger,
// and the hub. detected is the instant the triggering edit was first
// seen (zero for the initial build).
func (w *Watcher) iterate(changedPaths []string, detected time.Time) {
	m := w.opt.Manager
	wspan := w.col.StartSpan(CatWatch, "watch")
	wspan.Arg("seq", w.seq).Arg("changed", len(changedPaths))
	t0 := time.Now()
	_, err := m.BuildUnder(wspan, w.files)
	wall := time.Since(t0)
	wspan.End()

	var latency time.Duration
	if !detected.IsZero() {
		latency = time.Since(detected)
		w.col.Histogram(LatencyHist).Observe(latency.Seconds())
	}
	obs.Count(w.col, "watch.iterations", 1)
	obs.Count(w.col, "watch.changed", int64(len(changedPaths)))
	if err != nil {
		obs.Count(w.col, "watch.build_errors", 1)
	}

	ev := Event{
		Schema:     EventSchema,
		Seq:        w.seq,
		TimeUnixNs: time.Now().UnixNano(),
		Changed:    changedNames(changedPaths),
		Outcome:    OutcomeOK,
		LatencyNs:  int64(latency),
		WallNs:     int64(wall),
		Compiled:   m.Stats.Compiled,
		Loaded:     m.Stats.Loaded,
		Cutoffs:    m.Stats.Cutoffs,
	}
	if err != nil {
		ev.Outcome = OutcomeError
		ev.Error = err.Error()
	}
	if w.opt.Ledger != nil {
		w.opt.Ledger.Append(history.FromBuild(m, m.Report(w.opt.GroupPath),
			wall, time.Now(), err))
	}
	if w.opt.Log != nil {
		fmt.Fprintf(w.opt.Log, "watch #%d: %d changed, compiled %d loaded %d cutoffs %d in %v (latency %v)%s\n",
			w.seq, len(changedPaths), ev.Compiled, ev.Loaded, ev.Cutoffs,
			wall.Round(time.Millisecond), latency.Round(time.Millisecond),
			errSuffix(err))
	}
	w.opt.Hub.Publish(ev)
	w.seq++
	// Nothing exports a session's spans, so drop this iteration's.
	w.col.Prune()
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return " ERROR: " + err.Error()
}

// changedNames maps changed paths onto their base names (unit names in
// the common case), for event payloads.
func changedNames(paths []string) []string {
	var out []string
	for _, p := range paths {
		out = append(out, filepath.Base(p))
	}
	return out
}
