package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// size fixes how big the generated inputs are; the seed picks only
// their content.
type size struct {
	units, lines, funs int // the base project
	computeUnits       int // exec-heavy compute units, besides Shared
}

var (
	fullSize  = size{units: 80, lines: 120, funs: 6, computeUnits: 24}
	smokeSize = size{units: 12, lines: 30, funs: 3, computeUnits: 6}
)

// baseProject is the project of cold-build, null-rebuild and
// edit-session: a layered module DAG with functors.
func baseProject(seed int64, sz size) []core.File {
	return workload.Generate(workload.Config{
		Shape: workload.Layered, Units: sz.units, LinesPerUnit: sz.lines,
		FunsPerUnit: sz.funs, FanIn: 3, LayerWidth: 8, Functors: true, Seed: seed,
	}).Files
}

// kit gives a workload the store and Manager of one build: bare in the
// end-to-end run, and in the traced run wrapped in the timing
// decorators and wired to the run's collector.
type kit struct {
	jobs int
	col  *obs.Collector // traced run only
	io   *ioStats       // traced run only: the latest store's timings
}

func (k *kit) store(dir string) (core.Store, error) {
	if k.col == nil {
		ds, err := core.NewDirStore(dir)
		if err != nil {
			return nil, err
		}
		return ds, nil
	}
	k.io = &ioStats{}
	ds, err := core.NewDirStoreFS(dir, &timedFS{FS: core.OSFS{}, st: k.io})
	if err != nil {
		return nil, err
	}
	ds.Obs = k.col
	return &timedStore{ds: ds, st: k.io}, nil
}

func (k *kit) manager(st core.Store, cache *pickle.EnvCache) *core.Manager {
	return &core.Manager{Policy: core.PolicyCutoff, Store: st, Jobs: k.jobs,
		EnvCache: cache, Obs: k.col, Stdout: io.Discard}
}

// A scenario runs the ops of one workload. The harness times only the
// Build of the Manager that next returns.
type scenario interface {
	// setup generates the inputs under dir, warms the store and computes
	// the reference outputs.
	setup(dir string, k *kit) error
	// next prepares one op.
	next(k *kit) (*core.Manager, []core.File, error)
	// verify checks the op's outcome against the reference.
	verify(m *core.Manager, stdout []byte) error
	// finish runs the checks that need the whole run.
	finish() error
	// storeDir holds the bins the run leaves.
	storeDir() string
	close()
}

var workloadNames = []string{"cold-build", "null-rebuild", "edit-session", "exec-heavy"}

func newWorkload(name string, seed int64, sz size) (scenario, error) {
	b := base{seed: seed, sz: sz}
	switch name {
	case "cold-build":
		return &coldBuild{base: b}, nil
	case "null-rebuild":
		return &nullRebuild{base: b}, nil
	case "edit-session":
		return &editSession{base: b}, nil
	case "exec-heavy":
		return &execHeavy{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// buildInto builds files into the store at dir with a fresh Manager and
// EnvCache, returning the program's output.
func buildInto(dir string, files []core.File, jobs int) (string, error) {
	st, err := core.NewDirStore(dir)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	m := (&kit{jobs: jobs}).manager(st, pickle.NewEnvCache(0))
	m.Stdout = &out
	_, err = m.Build(files)
	return out.String(), err
}

// storeDigest hashes the names and bytes of the bin entries in dir, and
// totals their size.
func storeDigest(dir string) (digest string, bytes int64, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
		bytes += int64(len(data))
	}
	return hex.EncodeToString(h.Sum(nil)), bytes, nil
}

// coldReference is the digest of a -j1 cold build of files.
func coldReference(dir string, files []core.File) (string, error) {
	if _, err := buildInto(dir, files, 1); err != nil {
		return "", fmt.Errorf("reference build: %w", err)
	}
	d, _, err := storeDigest(dir)
	return d, err
}

// base holds what every scenario has, and the defaults most keep.
type base struct {
	seed int64
	sz   size
	dir  string // the store
}

func (b *base) finish() error    { return nil }
func (b *base) storeDir() string { return b.dir }
func (b *base) close()           {}

// fresh is a build of files over the store with a fresh Manager and a
// fresh EnvCache, as a new `irm build` process makes it.
func (b *base) fresh(k *kit, files []core.File) (*core.Manager, []core.File, error) {
	st, err := k.store(b.dir)
	if err != nil {
		return nil, nil, err
	}
	return k.manager(st, pickle.NewEnvCache(0)), files, nil
}

// cold-build: `irm build` on a clean checkout. Every op builds the base
// project into an empty store.
type coldBuild struct {
	base
	files []core.File
	ref   string
}

func (w *coldBuild) setup(dir string, k *kit) error {
	w.files = baseProject(w.seed, w.sz)
	w.dir = filepath.Join(dir, "store")
	ref, err := coldReference(filepath.Join(dir, "ref"), w.files)
	w.ref = ref
	return err
}

func (w *coldBuild) next(k *kit) (*core.Manager, []core.File, error) {
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, nil, err
	}
	return w.fresh(k, w.files)
}

func (w *coldBuild) verify(m *core.Manager, _ []byte) error {
	d, _, err := storeDigest(w.dir)
	if err != nil {
		return err
	}
	if d != w.ref {
		return fmt.Errorf("bins differ from the -j1 reference build")
	}
	return nil
}

// null-rebuild: a new `irm build` process over an unchanged project. Every
// op builds over the warm, locked store, so every unit loads and every
// EnvCache lookup misses.
type nullRebuild struct {
	base
	files []core.File
}

func (w *nullRebuild) setup(dir string, k *kit) error {
	w.files = baseProject(w.seed, w.sz)
	w.dir = filepath.Join(dir, "store")
	_, err := buildInto(w.dir, w.files, k.jobs)
	return err
}

func (w *nullRebuild) next(k *kit) (*core.Manager, []core.File, error) {
	return w.fresh(k, w.files)
}

func (w *nullRebuild) verify(m *core.Manager, _ []byte) error {
	if m.Stats.Compiled != 0 || m.Stats.Loaded != len(w.files) {
		return fmt.Errorf("null rebuild compiled %d and loaded %d of %d units",
			m.Stats.Compiled, m.Stats.Loaded, len(w.files))
	}
	return nil
}

// edit-session: `irm watch` or the daemon. The session holds the store
// lock throughout and shares one EnvCache across builds; every op
// applies the next edit of a seeded stream to one unit, then rebuilds.
type editSession struct {
	base
	files   []core.File
	cache   *pickle.EnvCache
	edits   *workload.EditDriver
	last    workload.ScriptedEdit
	release func()
}

func (w *editSession) setup(dir string, k *kit) error {
	w.files = baseProject(w.seed, w.sz)
	w.dir = filepath.Join(dir, "store")
	w.cache = pickle.NewEnvCache(0)
	w.edits = workload.NewEditDriver("", len(w.files), w.seed)
	ds, err := core.NewDirStore(w.dir)
	if err != nil {
		return err
	}
	if w.release, err = ds.Lock(); err != nil {
		return err
	}
	_, err = k.manager(core.Unlocked(ds), w.cache).Build(w.files)
	return err
}

func (w *editSession) next(k *kit) (*core.Manager, []core.File, error) {
	w.last = w.edits.Plan()
	f := &w.files[w.last.Unit]
	f.Source = workload.ApplyEdit(f.Source, w.last.Unit, w.last.Kind, w.last.Seq)
	st, err := k.store(w.dir)
	if err != nil {
		return nil, nil, err
	}
	return k.manager(core.Unlocked(st), w.cache), w.files, nil
}

// verify checks the cutoff rule: an edit that keeps the interface
// recompiles exactly the edited unit, and that recompile is a cutoff.
func (w *editSession) verify(m *core.Manager, _ []byte) error {
	s := m.Stats
	if s.Compiled+s.Loaded != len(w.files) || s.Compiled < 1 {
		return fmt.Errorf("%s edit of unit %d: compiled %d, loaded %d of %d units",
			w.last.Kind, w.last.Unit, s.Compiled, s.Loaded, len(w.files))
	}
	if w.last.Kind != workload.InterfaceEdit && (s.Compiled != 1 || s.Cutoffs != 1) {
		return fmt.Errorf("%s edit of unit %d: compiled %d with %d cutoffs, want 1 and 1",
			w.last.Kind, w.last.Unit, s.Compiled, s.Cutoffs)
	}
	return nil
}

// finish checks that the session's incremental builds left exactly the
// bins a -j1 cold build of the final tree makes.
func (w *editSession) finish() error {
	dir, err := os.MkdirTemp(filepath.Dir(w.dir), "final-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ref, err := coldReference(dir, w.files)
	if err != nil {
		return err
	}
	got, _, err := storeDigest(w.dir)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("session store differs from a cold build of the final tree")
	}
	return nil
}

func (w *editSession) close() {
	if w.release != nil {
		w.release()
		w.release = nil
	}
}

// exec-heavy: a null build of the exec program over its warm store, whose
// time goes to running the units, not to compiling or loading them.
type execHeavy struct {
	base
	files []core.File
	want  string
}

func (w *execHeavy) setup(dir string, k *kit) error {
	prog := genExecProgram(w.seed, w.sz.computeUnits)
	w.files, w.want = prog.files, prog.expectedOutput()
	w.dir = filepath.Join(dir, "store")
	out, err := buildInto(w.dir, w.files, k.jobs)
	if err != nil {
		return err
	}
	if out != w.want {
		return fmt.Errorf("exec program output differs from the reference:\n%s\nwant:\n%s", out, w.want)
	}
	return nil
}

func (w *execHeavy) next(k *kit) (*core.Manager, []core.File, error) {
	return w.fresh(k, w.files)
}

func (w *execHeavy) verify(m *core.Manager, stdout []byte) error {
	if m.Stats.Compiled != 0 {
		return fmt.Errorf("exec rebuild compiled %d units", m.Stats.Compiled)
	}
	if string(stdout) != w.want {
		return fmt.Errorf("exec output differs from the reference")
	}
	return nil
}
