package interp_test

// Differential fuzzing of the compiled-closure engine against the
// reference tree walker (treewalk_test.go, DESIGN.md §4j): on any
// source, executing the unit through Machine.Eval and executing its
// compiled form must print the same bytes, fail with the same error,
// and leave the same export values. Step budgets are the one sanctioned
// divergence — the two count steps at different granularities — so
// budget-exceeded runs are skipped, not compared. The tree walker also
// runs the unit's term as elaborated and as lambda.Prune leaves it:
// the two must print the same bytes and end in the same result or
// error, and the pruned term may take no more steps.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dynenv"
	"repro/internal/elab"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/parser"
	"repro/internal/workload"
)

// execTree is compiler.Execute with the reference tree walker in place
// of the compiled form: it evaluates the unit's term to a closure,
// applies that to the import vector, and binds the exports. Its errors
// read as Execute's do. It is the one tree-execution harness: the fuzz
// target, the known-call tests and BenchmarkApplyHot's tree case all
// run units through it.
func execTree(m *interp.Machine, u *compiler.Unit, dyn *dynenv.Env) error {
	imports, slots := interp.NewRecord(len(u.Imports))
	for i, p := range u.Imports {
		v, err := dyn.MustLookup(p)
		if err != nil {
			return fmt.Errorf("execute %s: %v", u.Name, err)
		}
		slots[i] = v
	}
	closure, err := m.Eval(u.Term(), nil)
	var result interp.Value
	if err == nil {
		result, err = m.Apply(closure, imports)
	}
	if err != nil {
		return fmt.Errorf("execute %s: %v", u.Name, err)
	}
	recv, ok := interp.Fields(result)
	if !ok && u.NumSlots > 0 {
		return fmt.Errorf("execute %s: code returned non-record", u.Name)
	}
	if len(recv) != u.NumSlots {
		return fmt.Errorf("execute %s: export record has %d slots, expected %d",
			u.Name, len(recv), u.NumSlots)
	}
	for i, v := range recv {
		dyn.Bind(u.ExportPid(i), v)
	}
	return nil
}

// execClosure is compiler.Execute with nothing observed, in the shape
// execWith takes.
func execClosure(m *interp.Machine, u *compiler.Unit, dyn *dynenv.Env) error {
	return compiler.Execute(m, u, dyn, nil, nil, 0)
}

// execWith compiles src in a fresh session and executes it with exec,
// returning what an observer can distinguish: printed output, the
// rendered dynamic environment, and the error string ("" = none).
func execWith(exec func(*interp.Machine, *compiler.Unit, *dynenv.Env) error, src string) (stdout, exports, errStr string) {
	var out strings.Builder
	s, err := compiler.NewSession(&out)
	if err != nil {
		return "", "", "session: " + err.Error()
	}
	// Bound divergence. Kept small so the deepest budget-respecting
	// recursion stays far from the Go stack limit.
	s.Machine.MaxSteps = 200_000
	u, err := s.Compile("fuzz.sml", src)
	if err == nil {
		err = exec(s.Machine, u, s.Dyn)
	}
	if err != nil {
		return out.String(), "", err.Error()
	}
	pids := s.Dyn.Pids()
	lines := make([]string, 0, len(pids))
	for _, p := range pids {
		v, ok := s.Dyn.Lookup(p)
		if !ok {
			continue
		}
		lines = append(lines, p.String()+"="+interp.String(v))
	}
	sort.Strings(lines)
	return out.String(), strings.Join(lines, "\n"), ""
}

// treeRun elaborates src in a fresh session and runs its term, pruned
// or as elaborated, through the tree walker, returning what it printed,
// its export record or error, and the steps it took. ok is false for a
// source that does not compile.
func treeRun(src string, prune bool) (stdout, result string, steps uint64, ok bool) {
	var out strings.Builder
	s, err := compiler.NewSession(&out)
	if err != nil {
		return "", "", 0, false
	}
	s.Machine.MaxSteps = 200_000
	decs, perrs := parser.Parse(src)
	if len(perrs) > 0 {
		return "", "", 0, false
	}
	res, errs := elab.ElabUnit(decs, s.Context)
	if len(errs) > 0 {
		return "", "", 0, false
	}
	code := res.Code
	if prune {
		code = lambda.Prune(code)
	}
	imports, slots := interp.NewRecord(len(res.ImportPids))
	for i, p := range res.ImportPids {
		if slots[i], ok = s.Dyn.Lookup(p); !ok {
			return "", "", 0, false
		}
	}
	steps0 := s.Machine.Steps
	closure, err := s.Machine.Eval(code, nil)
	var v interp.Value
	if err == nil {
		v, err = s.Machine.Apply(closure, imports)
	}
	result = "error: " + fmt.Sprint(err)
	if err == nil {
		result = interp.String(v)
	}
	return out.String(), result, s.Machine.Steps - steps0, true
}

func FuzzExecTreeVsClosure(f *testing.F) {
	f.Add("val x = 1 + 2")
	f.Add("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval r = fib 12")
	f.Add("val _ = print \"hello\\n\" val _ = print (Int.toString 42)")
	f.Add("exception Boom of int\nval r = (raise Boom 7) handle Boom n => n")
	f.Add("val xs = map (fn x => x * x) [1, 2, 3]")
	f.Add("val d = 1 div 0")
	f.Add("val v = (100000000000000000 * 100000) handle Overflow => 0")
	f.Add("fun loop n = loop (n + 1)\nval _ = loop 0")
	f.Add("datatype t = A | B of int\nfun show A = \"A\" | show (B n) = Int.toString n\nval s = show (B 3) ^ show A")
	// Curried clausal functions, which match each column against its
	// own parameter, and equality of records of every representation.
	f.Add("fun zip3 (x :: xs) (y :: ys) (z :: zs) = (x, y, z) :: zip3 xs ys zs\n  | zip3 _ _ _ = []\nval t = zip3 [1, 2] [3, 4] [5, 6, 7]\nval e = t = [(1, 3, 5), (2, 4, 6)]")
	f.Add("fun merge [] ys = ys | merge xs [] = xs\n  | merge (l as x :: xs) (r as y :: ys) = if x <= y then x :: merge xs r else y :: merge l ys\nval m = merge [1, 4, 9] [2, 3, 10]")
	f.Add("fun c 0 _ (_, \"zero\") = \"origin\" | c n ((a, b), d) (e, s) = s ^ Int.toString (n + a + b + d + e)\nval r = c 0 ((1, 2), 3) (4, \"zero\") ^ c 5 ((1, 2), 3) (4, \"n=\")\nval f = c 1 ((1, 1), 1) (1, \"x\") = \"x5\"")
	f.Add("fun g 0 0 = 1 | g 1 _ = 2\nval a = g 1 7\nval b = g 0 1")
	f.Add("val p = (1, \"a\") = (1, \"a\")\nval q = (1, 2, 3) = (1, 2, 4)\nval r = ((1, 2), (3, 4, 5)) = ((1, 2), (3, 4, 5))\nval u = () = ()\nval w = {a = 1, b = 2, c = 3, d = 4} = {a = 1, b = 2, c = 3, d = 5}")
	// Chains of arithmetic primitives, whose intermediate ints the
	// closure builder keeps unboxed: a fold with exec-heavy's shape, and
	// chains that raise Overflow and Div, mix in words and reals, and
	// print from their operands.
	f.Add("val xs = List.tabulate (50, fn i => (i * 97 + 500) mod 1009)\nval s = foldl (fn (x, acc) => (acc * 31 + x) mod 1000003) 7 xs\nval q = (s * s - s div 3) quot 7 + s rem 11")
	f.Add("val m = ~4611686018427387904 - 4611686018427387904\nval a = (~1 * m + 1) handle Overflow => 1\nval b = (m div ~1 - 1) handle Overflow => 2\nval c = (5 mod (3 - 3) + 1) handle Div => 3\nval w = (0w5 * 0w7 + 0w1) mod 0w6\nval r = 1.5 * 2.0 - 0.25\nfun p s n = (print s; n)\nval d = p \"a\" 100000 * p \"b\" 3 + p \"c\" 9 mod p \"d\" 4")
	// Constructor cells, built as one allocation (§4j): nested lists, a
	// tree insert over a 3-field constructor, equality of constructed
	// values, a cell holding a ref, and cells whose field raises while
	// the cell is built.
	f.Add("val xss = [[1, 2], [], [3]] :: [[4]] :: []\nval n = map length xss\nval f = foldr (fn (x, acc) => x @ acc) [] (hd xss)\nval s = foldl op+ 0 (List.concat (map List.concat xss))\nval e = xss = [[[1, 2], [], [3]], [[4]]]")
	f.Add("datatype t = L | N of t * int * t\nfun ins (x, L) = N (L, x, L)\n  | ins (x, t as N (l, v, r)) = if x < v then N (ins (x, l), v, r) else if x > v then N (l, v, ins (x, r)) else t\nfun walk L = [] | walk (N (l, v, r)) = walk l @ v :: walk r\nval t = foldl ins L [5, 3, 8, 1, 4, 7, 9, 5]\nval w = walk t\nval e = t = ins (5, t)")
	f.Add("datatype 'a p = P of 'a * 'a | Q of int * 'a * bool\nval a = [P (1, 2), Q (3, 4, true)] = [P (1, 2), Q (3, 4, true)]\nval b = Q (3, 4, true) = Q (3, 4, false)\nval c = SOME (1, \"x\") = SOME (1, \"x\")\nval d = (1 :: 2 :: [], P ([1], [])) = ([1, 2], P ([1], [2]))")
	f.Add("datatype c = C of int ref * int\nval r = ref 1\nval x = C (r, 2)\nval _ = r := 5\nval y = case x of C (s, n) => !s + n\nval l = [(r, 1)]\nval _ = (case l of (s, _) :: _ => s := 7 | [] => ())\nval z = !r")
	f.Add("exception E of int\ndatatype t = N of int * int * int\nfun boom n = if n > 2 then raise E n else n\nval a = (N (1, boom 3, 4); 0) handle E n => n\nval b = (boom 1 :: boom 5 :: []) handle E n => [n]\nval c = SOME (boom 2, boom 9) handle E n => SOME (n, n)")
	// Tail calls (§4j), beside the known-call programs tail-calls and
	// tail-handle: an over-saturated chain and a partial application
	// in tail position, a tail call through a stored closure, a loop
	// whose frame its closures capture, handlers whose own calls are
	// tail calls, and a raise from deep in a loop of tail calls.
	f.Add("fun k a b = fn c => a + b + c\nfun t (0, acc) = acc | t (n, acc) = t (n - 1, k 1 2 acc)\nfun u n = if n = 0 then k 0 0 else u (n - 1)\nval r = t (30, 0) + u 5 7\nval s = (fn f => f 3) (u 2)")
	f.Add("val r = ref (fn (n : int) => n)\nfun g n = if n = 0 then 0 else (!r) (n - 1)\nval _ = r := g\nval a = g 40\nfun keep (0, ks) = ks | keep (n, ks) = let val m = n * 2 in keep (n - 1, (fn () => m) :: ks) end\nval b = foldl (fn (k, s) => k () + s) 0 (keep (10, []))")
	f.Add("exception E of int\nfun down 0 = raise E 0 | down n = if n mod 7 = 0 then (down (n - 1) handle E k => raise E (k + n)) else down (n - 1)\nval a = down 30 handle E k => k\nfun h (n, acc) = (if n = 0 then acc else raise E n) handle E k => h (k - 1, acc + k)\nval b = h (20, 0)")
	// Evaluation order of the shapes the elaborator builds in place:
	// a tuple, a list literal, a constructor and an exception
	// constructor over their arguments, a record written out of label
	// order and a literal function applied, each printing as its parts
	// evaluate, and raising from inside them.
	f.Add("fun p s n = (print s; n)\nval t = (p \"a\" 1, p \"b\" 2, p \"c\" 3)\nval u = (p \"d\" 4, (p \"e\" 5, p \"f\" 6))\nval v = #2 (p \"g\" 7, p \"h\" 8)")
	f.Add("fun p s n = (print s; n)\nval l = [p \"a\" 1, p \"b\" 2, p \"c\" 3]\nval m = [[p \"d\" 4], [], [p \"e\" 5, p \"f\" 6]]\nval n = [p \"g\" 7, raise Div, p \"h\" 8] handle Div => [0]")
	f.Add("fun p s n = (print s; n)\nval s = SOME (p \"a\" 1, p \"b\" 2)\nval t = SOME (p \"c\" 3, SOME (p \"d\" 4, p \"e\" 5))\nval u = SOME (p \"f\" 6, raise Overflow, p \"g\" 7) handle Overflow => NONE")
	f.Add("fun p s n = (print s; n)\nexception E of int * int\nval a = (raise Fail (p \"a\" \"x\" ^ p \"b\" (raise E (p \"c\" 1, p \"d\" 2)))) handle E (x, y) => x + y | Fail _ => 0\nval b = (raise Fail (p \"e\" \"y\")) handle Fail m => size m\nval c = raise Fail (p \"f\" \"z\" ^ p \"g\" \"w\")")
	f.Add("fun p s n = (print s; n)\nval r = {b = p \"b\" 1, a = p \"a\" 2}\nval s = {c = p \"c\" 3, a = p \"a\" 4, b = p \"b\" 5}\nval t = #a {b = p \"d\" 6, a = p \"e\" 7} + #b {a = p \"f\" 8, b = p \"g\" 9}\nval u = {2 = p \"h\" 10, 1 = p \"i\" 11}")
	f.Add("fun p s n = (print s; n)\nval a = (fn x => (print \"body\"; x + 1)) (p \"arg\" 41)\nval b = (fn (x, y) => x - y) (p \"x\" 5, p \"y\" 3)\nval c = (fn f => f (p \"z\" 2)) (fn n => p \"w\" n * 2)\nval d = (fn x => x) (raise Div) handle Div => p \"div\" 0")
	for _, file := range workload.Generate(workload.Small()).Files {
		f.Add(file.Source)
	}
	// The known-call programs: join points and curried chains (§4j).
	known, err := filepath.Glob("../../testdata/knowncall/*.sml")
	if err != nil || len(known) == 0 {
		f.Fatalf("no known-call seeds (%v)", err)
	}
	for _, p := range known {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// Borrowed argument tuples (§4j): callees that must and must not
	// borrow.
	for _, tc := range borrowCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tOut, tExp, tErr := execWith(execTree, src)
		cOut, cExp, cErr := execWith(execClosure, src)
		if strings.Contains(tErr, "step budget") || strings.Contains(cErr, "step budget") {
			t.Skip("step budget reached; step granularity differs between the two")
		}
		if tErr != cErr {
			t.Fatalf("error mismatch:\ntree:    %q\nclosure: %q\nsource:\n%s", tErr, cErr, src)
		}
		if tOut != cOut {
			t.Fatalf("output mismatch:\ntree:    %q\nclosure: %q\nsource:\n%s", tOut, cOut, src)
		}
		if tExp != cExp {
			t.Fatalf("export mismatch:\ntree:\n%s\nclosure:\n%s\nsource:\n%s", tExp, cExp, src)
		}

		rOut, rRes, rSteps, ok := treeRun(src, false)
		pOut, pRes, pSteps, _ := treeRun(src, true)
		if !ok || strings.Contains(rRes, "step budget") {
			return
		}
		if pOut != rOut || pRes != rRes {
			t.Fatalf("pruned term differs:\nelaborated: %q %s\npruned:     %q %s\nsource:\n%s", rOut, rRes, pOut, pRes, src)
		}
		if pSteps > rSteps {
			t.Fatalf("pruned term took %d steps, elaborated %d\nsource:\n%s", pSteps, rSteps, src)
		}
	})
}

// applyHotSource is apply-dominated: fib 20 is ~10k applications per
// execution. The root package's BenchmarkApplyHot/closure, which
// benchgate gates, runs the same unit compiled.
const applyHotSource = `
fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)
val r = fib 20
`

// BenchmarkApplyHot runs the unit through the reference walker: the
// baseline the compiled engine's ApplyHot/closure is read against.
// Ungated, since the walker is test code.
func BenchmarkApplyHot(b *testing.B) {
	b.Run("tree", func(b *testing.B) {
		s, err := compiler.NewSession(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		u, err := s.Compile("bench", applyHotSource)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := execTree(s.Machine, u, s.Dyn.Copy()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
