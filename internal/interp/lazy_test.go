package interp_test

// Lazy function bodies (DESIGN.md §4j): LoadFn builds a unit's root
// body and defers every nested function to its first call. These tests
// pin that the deferred form is the eager one, that concurrent first
// calls agree, and that a forged section is still rejected at load even
// where it lies in a function that never runs.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// buildOnce builds files over store and returns the session, the
// manager, its collector and the program output.
func buildOnce(t *testing.T, store core.Store, files []core.File) (*compiler.Session, *core.Manager, *obs.Collector, string) {
	t.Helper()
	var out bytes.Buffer
	col := obs.New()
	m := &core.Manager{Store: store, Jobs: 1, EnvCache: pickle.NewEnvCache(0), Obs: col, Stdout: &out}
	s, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	return s, m, col, out.String()
}

// eagerByID compiles code eagerly and returns its functions by ID.
func eagerByID(t *testing.T, code *lambda.Fn) (*interp.CompiledFn, []*interp.CompiledFn) {
	t.Helper()
	root, fnOf, err := interp.IndexFns(code)
	if err != nil {
		t.Fatal(err)
	}
	byID := make([]*interp.CompiledFn, root.NumFuncs())
	for _, f := range fnOf {
		byID[f.ID] = f
	}
	return root, byID
}

// TestLazyLoadMatchesEager forces every function of every golden-corpus
// unit's LoadFn program and checks each header against CompileFn's:
// frame width, escape and borrow flags, profiler ID, parent and curried
// inner function. Each function's term, decoded as its first call decodes
// it, must re-pickle to exactly the bytes of its subtree in the bin.
// A cold build (every unit compiled eagerly) and a warm one (every
// unit loaded lazily) must print the same output and take the same
// number of steps.
func TestLazyLoadMatchesEager(t *testing.T) {
	corpus := workload.GoldenCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	m := interp.NewMachine()
	borrowing := 0
	for _, pname := range names {
		p := corpus[pname]
		store := core.NewMemStore()
		_, _, coldCol, coldOut := buildOnce(t, store, p.Files)
		s, warm, warmCol, warmOut := buildOnce(t, store, p.Files)
		if warm.Stats.Loaded != len(p.Files) {
			t.Fatalf("%s: warm build loaded %d of %d units", pname, warm.Stats.Loaded, len(p.Files))
		}
		if warmOut != coldOut {
			t.Errorf("%s: lazily loaded program printed %q, compiled one %q", pname, warmOut, coldOut)
		}
		cs, ws := coldCol.Counters()["exec.steps"], warmCol.Counters()["exec.steps"]
		if cs == 0 || ws != cs {
			t.Errorf("%s: steps %d loaded vs %d compiled", pname, ws, cs)
		}
		for _, u := range s.Units {
			if u.Name == "$prelude" {
				continue
			}
			if u.Code != nil || u.TermBytes == nil {
				t.Fatalf("%s/%s: loaded unit keeps a term (%v) or no term bytes", pname, u.Name, u.Code != nil)
			}
			eager, byID := eagerByID(t, u.Term())
			if _, sec, err := interp.CompileFn(u.Name, u.Term()); err != nil || !bytes.Equal(sec, u.CodeBytes) {
				t.Fatalf("%s/%s: recompiled section differs from the bin's (%v)", pname, u.Name, err)
			}
			lazy, err := interp.LoadFn(u.Name, u.Term(), u.TermBytes, u.CodeBytes)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, u.Name, err)
			}
			fns := interp.LoadedFuncs(lazy)
			if len(fns) != len(byID) || lazy.NumFuncs() != len(byID) {
				t.Fatalf("%s/%s: %d lazy functions, %d eager", pname, u.Name, len(fns), len(byID))
			}
			for id, f := range fns {
				if interp.Pending(f) != (id > 0) {
					t.Errorf("%s/%s fn %d: pending=%v before any call", pname, u.Name, id, interp.Pending(f))
				}
				term, src, release, err := interp.DecodedTerm(f)
				if err != nil {
					t.Fatalf("%s/%s fn %d: decoding its term: %v", pname, u.Name, id, err)
				}
				p := pickle.NewPickler(u.StatPid)
				p.Lambda(term)
				if err := p.Err(); err != nil || !bytes.Equal(p.Bytes(), src) {
					t.Errorf("%s/%s fn %d: first-call term re-pickles to %d bytes (%v), its subtree in the bin is %d",
						pname, u.Name, id, len(p.Bytes()), err, len(src))
				}
				release()
				interp.Force(m, f)
				if interp.Pending(f) {
					t.Errorf("%s/%s fn %d: still pending after forcing", pname, u.Name, id)
				}
				e := byID[id]
				if interp.Borrows(e) {
					borrowing++
				}
				if f.ID != int32(id) || f.NSlots != e.NSlots || interp.Escapes(f) != interp.Escapes(e) ||
					interp.Borrows(f) != interp.Borrows(e) ||
					lazy.ParentOf(f.ID) != eager.ParentOf(e.ID) || interp.InnerID(f) != interp.InnerID(e) {
					t.Errorf("%s/%s fn %d: lazy {id %d slots %d escapes %v borrows %v parent %d inner %d}, eager {id %d slots %d escapes %v borrows %v parent %d inner %d}",
						pname, u.Name, id, f.ID, f.NSlots, interp.Escapes(f), interp.Borrows(f), lazy.ParentOf(f.ID), interp.InnerID(f),
						e.ID, e.NSlots, interp.Escapes(e), interp.Borrows(e), eager.ParentOf(e.ID), interp.InnerID(e))
				}
			}
		}
	}
	if borrowing == 0 {
		t.Error("no corpus function borrows: the borrow flag comparison is vacuous")
	}
}

// TestLazyFirstCallRace has 8 goroutines make the first call to the
// same loaded function at once, before its term has been decoded: the
// term is decoded and the body built once and published to all of them
// (run it under -race).
func TestLazyFirstCallRace(t *testing.T) {
	s1, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s1.Run("tri", "fun tri n = if n = 0 then 0 else n + tri (n - 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	data, err := binfile.Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := binfile.Read(data, s2.Index, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s2.Machine, lu, s2.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	v, err := s2.Dyn.MustLookup(lu.ExportPid(0))
	if err != nil {
		t.Fatal(err)
	}
	tri, ok := v.(*interp.CompiledClosure)
	if !ok || !interp.Pending(tri.Fn) {
		t.Fatalf("export is %T (pending %v), want a closure over a pending function", v, ok && interp.Pending(tri.Fn))
	}
	if lu.Code != nil || interp.Builds(lu.Prog) != 0 {
		t.Fatalf("before the first call: unit keeps a term %v, %d bodies built; want none",
			lu.Code != nil, interp.Builds(lu.Prog))
	}
	const n = 8
	start := make(chan struct{})
	results := make([]interp.Value, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := s2.Machine.Fork()
			<-start
			results[i], errs[i] = m.Apply(tri, interp.IntV(100))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != interp.IntV(5050) {
			t.Errorf("goroutine %d: tri 100 = %v (%v), want 5050", i, results[i], errs[i])
		}
	}
	if interp.Pending(tri.Fn) {
		t.Error("function still pending after its first calls")
	}
	if got := interp.Builds(lu.Prog); got != 1 {
		t.Errorf("%d bodies built by 8 concurrent first calls, want 1", got)
	}
}

// TestForgedHelperRejectedAtLoad corrupts a generated unit's last
// hidden helper hN — a function nothing ever applies. In the code
// section it forges an out-of-range slot and a delta deeper than the
// open frames, and (separately) truncates the section by one byte
// (counter code.load_errors). In the lambda segment it forges a bad
// node tag, an element count past the end and a primitive name the op
// table does not hold, and cuts the bin short inside the helper's term
// (counter binfile.read_errors). Each must
// fail the bin read, and a build over the damaged store must recompile
// the unit before any unit executes: rejection stays at load, not at a
// first call that never comes.
func TestForgedHelperRejectedAtLoad(t *testing.T) {
	p := workload.Generate(workload.Config{
		Shape: workload.Chain, Units: 3, LinesPerUnit: 25, FunsPerUnit: 2,
		FanIn: 1, LayerWidth: 1, Seed: 5,
	})
	const name = "u000.sml"
	store := core.NewMemStore()
	_, _, _, want := buildOnce(t, store, p.Files)
	entry, err := store.Load(name)
	if err != nil || entry == nil {
		t.Fatalf("load %s: %v", name, err)
	}
	good := entry.Bin

	// Locate hN: the root's last child, left pending by a full run.
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := binfile.Read(good, pickle.NewOverlay(s.Index), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	fns := interp.LoadedFuncs(u.Prog)
	helper := fns[0]
	for _, f := range fns {
		if u.Prog.ParentOf(f.ID) == 0 {
			helper = f
		}
	}
	if !interp.Pending(helper) {
		t.Fatalf("fn %d ran; want the never-applied helper", helper.ID)
	}
	start, end := interp.Span(helper)
	sec := len(good) - len(u.CodeBytes)
	body := good[sec+start : sec+end]
	if len(body) < 2 {
		t.Fatalf("helper body % x: want at least one coordinate", body)
	}
	for _, b := range body {
		if b >= 0x80 {
			t.Fatalf("helper body % x: want single-byte coordinates", body)
		}
	}
	pair := -1 // the first (delta, slot) pair at delta 0
	for i := 0; i+1 < len(body); i += 2 {
		if body[i] == 0 {
			pair = sec + start + i
			break
		}
	}
	if pair < 0 {
		t.Fatalf("helper body % x: no delta-0 coordinate", body)
	}

	patch := func(off int, b ...byte) []byte {
		bad := bytes.Clone(good)
		copy(bad[off:], b)
		return bad
	}
	n := len(u.CodeBytes)
	lenPrefix := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(n))
	truncated := binary.AppendUvarint(bytes.Clone(good[:sec-lenPrefix]), uint64(n-1))
	truncated = append(truncated, good[sec:len(good)-1]...)

	// The helper's term in the lambda segment, which ends where the
	// code section's length prefix starts: its Fn tag, its parameter,
	// then the first node of its body.
	lam := sec - lenPrefix - len(u.TermBytes)
	term, src, release, err := interp.DecodedTerm(helper)
	if err != nil {
		t.Fatal(err)
	}
	param := binary.PutVarint(make([]byte, binary.MaxVarintLen64), int64(term.Param))
	release()
	fnAt := lam + interp.TermAt(helper)
	bodyAt := fnAt + 1 + param
	if len(src) < 16 {
		t.Fatalf("helper term % x: want a body of some size", src)
	}
	rec := pickle.NewPickler(u.StatPid)
	rec.Lambda(&lambda.Record{})
	recordTag := rec.Bytes()[0]
	pastEnd := binary.AppendVarint([]byte{recordTag}, int64(len(good)))
	// An op name in the helper's term, renamed in place to a name of
	// the same length that the op table does not hold.
	opAt, opName := -1, ""
	for op := range lambda.NumOps {
		name := op.String()
		p := pickle.NewPickler(u.StatPid)
		p.Lambda(&lambda.Prim{Op: op})
		if i := bytes.Index(src, p.Bytes()[:2+len(name)]); i >= 0 {
			opAt, opName = fnAt+i+2, name
			break
		}
	}
	if opAt < 0 {
		t.Fatalf("helper term % x: want a primitive call", src)
	}

	const codeErr, readErr = "code.load_errors", "binfile.read_errors"
	for _, tc := range []struct {
		name    string
		bin     []byte
		counter string
	}{
		{"slot", patch(pair+1, 0x7f), codeErr},
		{"delta", patch(pair, 0x7f), codeErr},
		{"truncated", truncated, codeErr},
		{"lambda-tag", patch(bodyAt, 0x7f), readErr},
		{"lambda-count", patch(bodyAt, pastEnd...), readErr},
		{"lambda-cut", bytes.Clone(good[:fnAt+len(src)/2]), readErr},
		{"lambda-op", patch(opAt, bytes.Repeat([]byte{'?'}, len(opName))...), readErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := obs.NewBuffer()
			s, err := compiler.NewSession(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			_, err = binfile.Read(tc.bin, pickle.NewOverlay(s.Index), nil, buf)
			if err == nil {
				t.Fatal("forged bin loaded")
			}
			t.Logf("rejected: %v", err)
			if got := buf.Get(tc.counter); got != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, got)
			}

			bad := *entry
			bad.Bin = tc.bin
			if err := store.Save(name, &bad); err != nil {
				t.Fatal(err)
			}
			_, m, col, out := buildOnce(t, store, p.Files)
			if out != want {
				t.Errorf("output %q, want %q", out, want)
			}
			if got := col.Counters()[tc.counter]; got != 1 {
				t.Errorf("build counted %s = %d, want 1", tc.counter, got)
			}
			for _, e := range m.Explains {
				if e.Unit == name && (e.Action != obs.ActionCompiled || e.Reason != obs.ReasonBinUnreadable) {
					t.Errorf("%s: action=%s reason=%s, want compiled/bin-unreadable", name, e.Action, e.Reason)
				}
			}
			compiled, firstExec := spanOrder(t, col)
			if compiled == 0 || firstExec == 0 || compiled > firstExec {
				t.Errorf("compile span #%d, first execute span #%d: want the recompile first", compiled, firstExec)
			}
		})
	}
}

// spanOrder returns the creation order (span id) of the build's one
// compile span and of its first execute span.
func spanOrder(t *testing.T, col *obs.Collector) (compiled, firstExec int) {
	t.Helper()
	var log bytes.Buffer
	if err := col.WriteJSONL(&log); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&log)
	for dec.More() {
		var line struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
			Name string `json:"name"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Type != "span" {
			continue
		}
		switch {
		case line.Name == "compile" && compiled == 0:
			compiled = line.ID
		case line.Name == "execute" && firstExec == 0:
			firstExec = line.ID
		}
	}
	return compiled, firstExec
}
