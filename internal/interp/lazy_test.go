package interp_test

// Lazy function bodies (DESIGN.md §4j): CompileFn and LoadFn build a
// unit's root body and defer every nested function to its first call.
// These tests pin that a compiled unit is the loaded one, that
// concurrent first calls agree, and that a forged section is still
// rejected at load even where it lies in a function that never runs.

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

// TestLazyCompiledMatchesLoaded compiles every golden-corpus unit as a
// cold build does and checks that the program is the one a warm build
// loads from the unit's bin: the unit's TermBytes are the bin's lambda
// segment and its CodeBytes the code section, byte for byte; Compile
// builds only the root body, as LoadFn does; and every function header
// (ID, parent, frame width, escape and borrow flags, curried inner
// function, term offset, section span and nested count) is LoadFn's.
// Each function's term, decoded as its first call decodes it, must
// re-pickle to exactly the bytes of its subtree in the bin. Executing
// the compiled units must print what the cold and the warm build
// print, and the two builds must take the same number of steps.
func TestLazyCompiledMatchesLoaded(t *testing.T) {
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
		warm, wm, warmCol, warmOut := buildOnce(t, store, p.Files)
		if wm.Stats.Loaded != len(p.Files) {
			t.Fatalf("%s: warm build loaded %d of %d units", pname, wm.Stats.Loaded, len(p.Files))
		}
		if warmOut != coldOut {
			t.Errorf("%s: loaded program printed %q, compiled one %q", pname, warmOut, coldOut)
		}
		cs, ws := coldCol.Counters()["exec.steps"], warmCol.Counters()["exec.steps"]
		if cs == 0 || ws != cs {
			t.Errorf("%s: steps %d loaded vs %d compiled", pname, ws, cs)
		}
		sources := make(map[string]string, len(p.Files))
		for _, f := range p.Files {
			sources[f.Name] = f.Source
		}
		var out bytes.Buffer
		s, err := compiler.NewSession(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, lu := range warm.Units[1:] {
			where := pname + "/" + lu.Name
			u, err := s.Compile(lu.Name, sources[lu.Name])
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if interp.Builds(u.Prog) != 0 {
				t.Errorf("%s: Compile built %d nested bodies, want none", where, interp.Builds(u.Prog))
			}
			if !bytes.Equal(u.TermBytes, lu.TermBytes) || !bytes.Equal(u.CodeBytes, lu.CodeBytes) {
				t.Fatalf("%s: compiled term %d bytes and section %d, the bin's %d and %d",
					where, len(u.TermBytes), len(u.CodeBytes), len(lu.TermBytes), len(lu.CodeBytes))
			}
			loaded, err := interp.LoadFn(lu.Name, lu.Term(), lu.TermBytes, lu.CodeBytes)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			cfns, lfns := interp.Funcs(u.Prog), interp.Funcs(loaded)
			if len(cfns) != len(lfns) {
				t.Fatalf("%s: %d compiled functions, %d loaded", where, len(cfns), len(lfns))
			}
			for id, f := range lfns {
				c := cfns[id]
				if ch, lh := header(c), header(f); ch != lh {
					t.Errorf("%s fn %d: compiled %+v, loaded %+v", where, id, ch, lh)
				}
				if interp.Pending(f) != (id > 0) || interp.Pending(c) != (id > 0) {
					t.Errorf("%s fn %d: pending %v compiled, %v loaded, before any call",
						where, id, interp.Pending(c), interp.Pending(f))
				}
				if interp.Borrows(f) {
					borrowing++
				}
				term, src, release, err := interp.DecodedTerm(f)
				if err != nil {
					t.Fatalf("%s fn %d: decoding its term: %v", where, id, err)
				}
				got, err := pickle.EncodeTerm(term)
				if err != nil || !bytes.Equal(got, src) {
					t.Errorf("%s fn %d: first-call term re-pickles to %d bytes (%v), its subtree in the bin is %d",
						where, id, len(got), err, len(src))
				}
				release()
				interp.Force(m, f)
				if interp.Pending(f) {
					t.Errorf("%s fn %d: still pending after forcing", where, id)
				}
			}
			if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			s.Accept(u)
		}
		if out.String() != coldOut {
			t.Errorf("%s: compiled units printed %q, the build %q", pname, out.String(), coldOut)
		}
	}
	if borrowing == 0 {
		t.Error("no corpus function borrows: the borrow flag comparison is vacuous")
	}
}

// fnHeader is everything a function's header says, but its body.
type fnHeader struct {
	ID, Parent, Pos, Inner, NSlots int32
	Escapes, Borrows               bool
	Start, End, Nested             int
}

func header(f *interp.CompiledFn) fnHeader {
	start, end := interp.Span(f)
	return fnHeader{
		ID: f.ID, Parent: f.Parent, Pos: f.Pos, Inner: interp.InnerID(f), NSlots: f.NSlots,
		Escapes: interp.Escapes(f), Borrows: interp.Borrows(f),
		Start: start, End: end, Nested: interp.Nested(f),
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
	if interp.Builds(lu.Prog) != 0 {
		t.Fatalf("before the first call: %d bodies built; want none", interp.Builds(lu.Prog))
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

// TestForgedHelperRejectedAtLoad corrupts a function that a generated
// unit's bin keeps but nothing ever applies: u000's exported f1, which
// only u001's f1 calls, and nothing calls that. (The unit's hidden
// helpers are not in the bin: lambda.Prune drops them.) In the code
// section it forges an out-of-range slot and a delta deeper than the
// open frames, and (separately) truncates the section by one byte
// (counter code.load_errors). In the lambda segment it forges a bad
// node tag, an element count past the end and a primitive name the op
// table does not hold, and cuts the bin short inside the function's
// term (counter binfile.read_errors). Each must fail the bin read, and
// a build over the damaged store must recompile the unit before any
// unit executes: rejection stays at load, not at a first call that
// never comes.
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

	// Locate f1: the second of the root's children, which are the
	// unit's exported functions f0 and f1 in source order.
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := binfile.Read(good, s.Index, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	var roots []*interp.CompiledFn
	for _, f := range interp.Funcs(u.Prog) {
		if f.Parent == 0 {
			roots = append(roots, f)
		}
	}
	if len(roots) != 2 {
		t.Fatalf("%d functions under the root, want f0 and f1", len(roots))
	}
	f1 := roots[1]
	if !interp.Pending(f1) {
		t.Fatalf("fn %d ran; want the never-applied f1", f1.ID)
	}
	start, end := interp.Span(f1)
	sec := len(good) - len(u.CodeBytes)
	body := good[sec+start : sec+end]
	if len(body) < 2 {
		t.Fatalf("f1 body % x: want at least one coordinate", body)
	}
	for _, b := range body {
		if b >= 0x80 {
			t.Fatalf("f1 body % x: want single-byte coordinates", body)
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
		t.Fatalf("f1 body % x: no delta-0 coordinate", body)
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

	// f1's term in the lambda segment, which ends where the code
	// section's length prefix starts: its Fn tag, its parameter, then
	// the first node of its body.
	lam := sec - lenPrefix - len(u.TermBytes)
	term, src, release, err := interp.DecodedTerm(f1)
	if err != nil {
		t.Fatal(err)
	}
	param := binary.PutVarint(make([]byte, binary.MaxVarintLen64), int64(term.Param))
	release()
	fnAt := lam + int(f1.Pos)
	bodyAt := fnAt + 1 + param
	if len(src) < 16 {
		t.Fatalf("f1 term % x: want a body of some size", src)
	}
	rec, err := pickle.EncodeTerm(&lambda.Record{})
	if err != nil {
		t.Fatal(err)
	}
	recordTag := rec[0]
	pastEnd := binary.AppendVarint([]byte{recordTag}, int64(len(good)))
	// An op name in f1's term, renamed in place to a name of the same
	// length that the op table does not hold.
	opAt, opName := -1, ""
	for op := range lambda.NumOps {
		name := op.String()
		p, err := pickle.EncodeTerm(&lambda.Prim{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(src, p[:2+len(name)]); i >= 0 {
			opAt, opName = fnAt+i+2, name
			break
		}
	}
	if opAt < 0 {
		t.Fatalf("f1 term % x: want a primitive call", src)
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
			_, err = binfile.Read(tc.bin, s.Index, nil, buf)
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
