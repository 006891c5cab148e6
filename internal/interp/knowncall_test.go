package interp_test

// Known calls (DESIGN.md §4j): join points and saturated curried
// chains run without building the closures plain application would,
// and calls in tail position run in the caller's trampoline. None of
// it may be observable. Each program here runs through the
// reference walker (Machine.Eval), which must print the same and
// export the same values, and through the compiled form — freshly
// compiled, loaded from its bin, and with the profiler on, where
// chains take plain apply. All compiled runs must take the same number
// of steps, and a step budget must cut every one of them off at the
// same point.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/lambda"
)

// knownCalls returns the programs of testdata/knowncall, by file name
// without extension: they exercise every call form the closure builder
// treats specially. FuzzExecTreeVsClosure seeds with the same files.
func knownCalls(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/knowncall/*.sml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no known-call programs (%v)", err)
	}
	progs := make(map[string]string, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[strings.TrimSuffix(filepath.Base(p), ".sml")] = string(src)
	}
	return progs
}

// knownRun is what one execution shows an observer, and the export
// values themselves.
type knownRun struct {
	out, exports, err string
	steps             uint64
	values            []interp.Value
}

// runKnown compiles src in a fresh session and executes it: "tree"
// through the reference walker, "closure" compiled, "loaded" from its
// bin (every nested function built on its first call), "profiled"
// compiled with the profiler on. budget, when non-zero, bounds the
// unit's steps.
func runKnown(t *testing.T, src, mode string, budget uint64) knownRun {
	t.Helper()
	var out strings.Builder
	s, err := compiler.NewSession(&out)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("known.sml", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := s.Machine
	switch mode {
	case "loaded":
		data, err := binfile.Encode(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if u, err = binfile.Read(data, s.Index, nil, nil); err != nil {
			t.Fatal(err)
		}
	case "profiled":
		m.StartProfile(7)
	}
	m.Steps, m.MaxSteps = 0, budget
	if mode == "tree" {
		err = execTree(m, u, s.Dyn)
	} else {
		err = compiler.Execute(m, u, s.Dyn, nil, nil, 0)
	}
	r := knownRun{out: out.String(), steps: m.Steps}
	if err != nil {
		r.err = err.Error()
		return r
	}
	var exp []string
	for i := 0; i < u.NumSlots; i++ {
		v, _ := s.Dyn.Lookup(u.ExportPid(i))
		exp = append(exp, interp.String(v))
		r.values = append(r.values, v)
	}
	r.exports = strings.Join(exp, "; ")
	return r
}

func TestKnownCallsMatchReference(t *testing.T) {
	want := map[string]string{
		"curried-effects":   "abc123\n",
		"under-saturated":   "247\n",
		"over-saturated":    "k4 6\n",
		"partial-stored":    "31\n",
		"innermost-escapes": "702\n",
		"join-handle":       "zero~95none\n~1\n",
		"fold-tabulate":     "40425 50\n",
		"prim-saturation":   "lrus21xy66\n",
		"tail-calls":        "40 60 25 false 210 190 10\n",
		"tail-handle":       "24 0 105 1003\n",
	}
	progs := knownCalls(t)
	if len(progs) != len(want) {
		t.Fatalf("%d known-call programs, %d expected outputs", len(progs), len(want))
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			ref := runKnown(t, src, "tree", 0)
			if ref.err != "" || ref.out != want[name] {
				t.Fatalf("reference walker: output %q, error %q; want %q", ref.out, ref.err, want[name])
			}
			comp := runKnown(t, src, "closure", 0)
			for _, mode := range []string{"closure", "loaded", "profiled"} {
				got := runKnown(t, src, mode, 0)
				if got.out != ref.out || got.exports != ref.exports || got.err != "" {
					t.Errorf("%s: output %q exports %q error %q; reference %q, %q",
						mode, got.out, got.exports, got.err, ref.out, ref.exports)
				}
				if got.steps != comp.steps {
					t.Errorf("%s: %d steps, compiled %d", mode, got.steps, comp.steps)
				}
			}
		})
	}
}

// TestKnownCallsStepBudget exhausts a step budget at every step of
// each program: a compiled run must stop exactly where the profiled
// run, whose chains take plain apply, stops — same output printed so
// far, same error.
func TestKnownCallsStepBudget(t *testing.T) {
	progs := knownCalls(t)
	for _, name := range []string{"curried-effects", "over-saturated", "join-handle", "partial-stored", "prim-saturation", "tail-calls", "tail-handle"} {
		src := progs[name]
		total := runKnown(t, src, "closure", 0).steps
		for budget := uint64(1); budget < total; budget++ {
			plain := runKnown(t, src, "profiled", budget)
			for _, mode := range []string{"closure", "loaded"} {
				got := runKnown(t, src, mode, budget)
				if got.out != plain.out || got.err != plain.err || got.steps != plain.steps {
					t.Fatalf("%s, budget %d of %d, %s: output %q error %q after %d steps; plain apply %q %q after %d",
						name, budget, total, mode, got.out, got.err, got.steps, plain.out, plain.err, plain.steps)
				}
			}
			if !strings.Contains(plain.err, "step budget") {
				t.Fatalf("%s, budget %d of %d: error %q, want the budget crash", name, budget, total, plain.err)
			}
		}
	}
}

// TestJoinPointTerms runs hand-built join points against the same term
// with one bare use of the binder added (so it builds its closure):
// the value, and the steps, must agree, and so must the reference
// walker's value. The join frames' parents are the binding frame.
func TestJoinPointTerms(t *testing.T) {
	var g lambda.Gen
	exn, x, j, k, p, h, y := g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh()
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	app := func(f lambda.LVar, a lambda.Exp) lambda.Exp { return &lambda.App{Fn: v(f), Arg: a} }
	add := func(a, b lambda.Exp) lambda.Exp { return &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{a, b}} }
	// let exn = new E in fn x =>
	//   let j = fn p => raise (E p + x) in
	//   let k = fn p => p + x in
	//   (j 1 handle h => k (#E h)) + k 2
	body := func(bare bool) lambda.Exp {
		inner := add(
			&lambda.Handle{
				Body:    app(j, &lambda.Int{Val: 1}),
				Param:   h,
				Handler: app(k, &lambda.ExnDecon{Exp: v(h)}),
			},
			app(k, &lambda.Int{Val: 2}),
		)
		if bare {
			inner = &lambda.Let{LV: y, Bind: v(j), Body: inner}
		}
		return &lambda.Let{LV: exn, Bind: &lambda.NewExnTag{Name: "E"}, Body: &lambda.Fn{Param: x, Body: &lambda.Let{
			LV: j,
			Bind: &lambda.Fn{Param: p, Body: &lambda.Raise{Exp: &lambda.ExnCon{
				Tag: v(exn), Arg: add(v(p), v(x)),
			}}},
			Body: &lambda.Let{LV: k, Bind: &lambda.Fn{Param: p, Body: add(v(p), v(x))}, Body: inner},
		}}}
	}
	run := func(term lambda.Exp) (interp.Value, uint64, []*interp.CompiledFn) {
		prog, _, _, err := interp.CompileFn("term", &lambda.Fn{Param: g.Fresh(), Body: term})
		if err != nil {
			t.Fatal(err)
		}
		m := interp.NewMachine()
		f, err := m.Apply(&interp.CompiledClosure{Fn: prog}, interp.Unit())
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Apply(f, interp.IntV(40))
		if err != nil {
			t.Fatal(err)
		}
		return r, m.Steps, interp.Funcs(prog)
	}
	jv, jsteps, jfns := run(body(false))
	cv, csteps, cfns := run(body(true))
	m := interp.NewMachine()
	f, err := m.Eval(body(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := m.Apply(f, interp.IntV(40))
	if err != nil {
		t.Fatal(err)
	}
	// (j 1 raises E 41, handled by k 41 = 81) + k 2 = 42: 123.
	if jv != interp.IntV(123) || cv != jv || rv != jv {
		t.Fatalf("join form %v, closure form %v, reference %v; want 123", jv, cv, rv)
	}
	if jsteps != csteps {
		t.Errorf("join form took %d steps, closure form %d", jsteps, csteps)
	}
	// Function 1 is fn x: with j built as a closure its frame escapes;
	// with j and k as join points it does not.
	if interp.Escapes(jfns[1]) || !interp.Escapes(cfns[1]) {
		t.Errorf("fn x escapes: %v as join points, %v with closures; want false, true",
			interp.Escapes(jfns[1]), interp.Escapes(cfns[1]))
	}
}

// TestJoinPointScoping runs terms where a Let-bound function must not
// become a join point, compiled and through the reference walker: one
// called from inside another function's body (its frame is not the
// binding's), and one whose binder a non-join binding shadows.
func TestJoinPointScoping(t *testing.T) {
	var g lambda.Gen
	x, f, h, j, p, q, z := g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh(), g.Fresh()
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	app := func(f lambda.LVar, a lambda.Exp) lambda.Exp { return &lambda.App{Fn: v(f), Arg: a} }
	num := func(n int64) lambda.Exp { return &lambda.Int{Val: n} }
	add := func(a, b lambda.Exp) lambda.Exp { return &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{a, b}} }
	for _, tc := range []struct {
		name string
		body lambda.Exp // under fn x, applied to 40
		want interp.IntV
	}{
		// let f = fn p => p + x in let h = fn q => f q in h 1 + h 2
		{"called-in-nested-function", &lambda.Let{LV: f, Bind: &lambda.Fn{Param: p, Body: add(v(p), v(x))},
			Body: &lambda.Let{LV: h, Bind: &lambda.Fn{Param: q, Body: app(f, v(q))},
				Body: add(app(h, num(1)), app(h, num(2)))}}, 83},
		// let j = fn p => p + x in
		//   j 1 + (let j = fn q => q * 10 in j 2 + (let z = j in z 3))
		{"shadowed", &lambda.Let{LV: j, Bind: &lambda.Fn{Param: p, Body: add(v(p), v(x))},
			Body: add(app(j, num(1)), &lambda.Let{LV: j,
				Bind: &lambda.Fn{Param: q, Body: &lambda.Prim{Op: lambda.OpMul, Args: []lambda.Exp{v(q), num(10)}}},
				Body: add(app(j, num(2)), &lambda.Let{LV: z, Bind: v(j), Body: app(z, num(3))})})}, 91},
	} {
		term := &lambda.Fn{Param: x, Body: tc.body}
		prog, _, _, err := interp.CompileFn("term", &lambda.Fn{Param: g.Fresh(), Body: term})
		if err != nil {
			t.Fatal(err)
		}
		m := interp.NewMachine()
		fv, err := m.Apply(&interp.CompiledClosure{Fn: prog}, interp.Unit())
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Apply(fv, interp.IntV(40))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := m.Eval(term, nil)
		if err == nil {
			ref, err = m.Apply(ref, interp.IntV(40))
		}
		if err != nil || got != tc.want || ref != tc.want {
			t.Errorf("%s: compiled %v, reference %v (%v); want %d", tc.name, got, ref, err, tc.want)
		}
	}
}

// TestClassifyAllocatesNothing pins that the join-point classifier,
// which runs for every Let-bound function of every loaded unit, costs
// no allocation.
func TestClassifyAllocatesNothing(t *testing.T) {
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("join.sml", knownCalls(t)["join-handle"])
	if err != nil {
		t.Fatal(err)
	}
	lets := letFns(u.Term(), nil)
	if len(lets) == 0 {
		t.Fatal("no Let-bound functions in the program")
	}
	joins := 0
	allocs := testing.AllocsPerRun(20, func() {
		joins = 0
		for _, l := range lets {
			if interp.IsJoin(l) {
				joins++
			}
		}
	})
	if joins == 0 {
		t.Errorf("none of %d Let-bound functions is a join point", len(lets))
	}
	if allocs != 0 {
		t.Errorf("classifying %d Lets allocated %.0f times, want 0", len(lets), allocs)
	}
}

// letFns appends to out every Let in e that binds a function literal.
func letFns(e lambda.Exp, out []*lambda.Let) []*lambda.Let {
	var kids []lambda.Exp
	switch e := e.(type) {
	case *lambda.Record:
		kids = e.Fields
	case *lambda.Prim:
		kids = e.Args
	case *lambda.Select:
		kids = []lambda.Exp{e.Rec}
	case *lambda.Fn:
		kids = []lambda.Exp{e.Body}
	case *lambda.Fix:
		for _, f := range e.Fns {
			kids = append(kids, f)
		}
		kids = append(kids, e.Body)
	case *lambda.App:
		kids = []lambda.Exp{e.Fn, e.Arg}
	case *lambda.Let:
		if _, ok := e.Bind.(*lambda.Fn); ok {
			out = append(out, e)
		}
		kids = []lambda.Exp{e.Bind, e.Body}
	case *lambda.Con:
		kids = []lambda.Exp{e.Arg}
	case *lambda.Decon:
		kids = []lambda.Exp{e.Exp}
	case *lambda.ExnCon:
		kids = []lambda.Exp{e.Tag, e.Arg}
	case *lambda.ExnDecon:
		kids = []lambda.Exp{e.Exp}
	case *lambda.If:
		kids = []lambda.Exp{e.Cond, e.Then, e.Else}
	case *lambda.Switch:
		kids = []lambda.Exp{e.Scrut, e.Default}
		for _, c := range e.Cases {
			kids = append(kids, c.Body)
		}
	case *lambda.Raise:
		kids = []lambda.Exp{e.Exp}
	case *lambda.Handle:
		kids = []lambda.Exp{e.Body, e.Handler}
	}
	for _, k := range kids {
		if k != nil {
			out = letFns(k, out)
		}
	}
	return out
}

// TestProfilingKnownCalls runs the known-call programs with the
// profiler off and on — steps and output must agree — and checks what
// the profile's allocs (escaping frames) say about fold-tabulate: of
// the functions applied at every step of its two folds, only foldl's
// two curried levels, whose bodies are closures, escape. Its innermost
// level and the match compiler's clause thunk inside it do not: the
// thunk is a join point, not a closure.
func TestProfilingKnownCalls(t *testing.T) {
	progs := knownCalls(t)
	for name, src := range progs {
		plain, prof := runKnown(t, src, "closure", 0), runKnown(t, src, "profiled", 0)
		if plain.steps != prof.steps || plain.out != prof.out {
			t.Errorf("%s: %d steps, output %q unprofiled; %d steps, %q profiled",
				name, plain.steps, plain.out, prof.steps, prof.out)
		}
	}
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("fold.sml", progs["fold-tabulate"])
	if err != nil {
		t.Fatal(err)
	}
	s.Machine.StartProfile(7)
	if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	ups := s.Machine.TakeUnitProfiles()
	if len(ups) != 1 {
		t.Fatalf("%d unit profiles, want 1", len(ups))
	}
	escaping := 0
	for _, f := range ups[0].Funcs {
		if f.Allocs != 0 && f.Allocs != f.Applies {
			t.Errorf("%+v: allocs neither 0 nor applies", f)
		}
		if f.Applies >= 100 && f.Allocs > 0 {
			escaping++
		}
	}
	if escaping != 2 {
		t.Errorf("%d functions applied per element escape, want 2 (foldl's curried levels): %+v", escaping, ups[0].Funcs)
	}
}
