package interp_test

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/basis"
	"repro/internal/compiler"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/types"
)

// TestPrimTable checks the one table of primitives against its users:
// every op a basis binding names is in the table, a binary op's basis
// type takes a pair, every op is bound by the basis or emitted by the
// elaborator, and every op — its raise and crash cases too — gives the
// same result in the tree walker and the closure builder.
func TestPrimTable(t *testing.T) {
	bound := map[lambda.Op]bool{}
	e := basis.PrimEnv()
	for _, ent := range e.Order() {
		if ent.NS != env.NSVal {
			continue
		}
		vb, _ := e.LocalVal(ent.Name)
		if vb.Prim == "" || strings.HasPrefix(vb.Prim, "exn:") {
			continue
		}
		op, ok := lambda.LookupOp(vb.Prim)
		if !ok {
			t.Errorf("basis %q binds op %q, which the table lacks", ent.Name, vb.Prim)
			continue
		}
		bound[op] = true
		from := vb.Scheme.Body.(*types.Arrow).From
		if rec, ok := from.(*types.Record); op.Arity() == 2 && (!ok || len(rec.Types) != 2) {
			t.Errorf("basis %q: binary op %s does not take a pair", ent.Name, op)
		}
	}

	// The ops no basis name binds must be ones the elaborator emits.
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("emit.sml", `exception E
fun f 0 = 1
val (a, 1) = (1, 1)
val r = (raise E) handle E => 0`)
	if err != nil {
		t.Fatal(err)
	}
	code := lambda.String(u.Term())
	for op := range lambda.NumOps {
		if !bound[op] && !strings.Contains(code, "%"+op.String()+"(") {
			t.Errorf("op %s is neither bound by the basis nor emitted by the elaborator", op)
		}
	}

	samples := primSamples()
	for op := range lambda.NumOps {
		if len(samples[op]) == 0 {
			t.Errorf("op %s has no sample", op)
		}
		for _, args := range samples[op] {
			term := &lambda.Prim{Op: op, Args: args}
			tree := runTree(term)
			closure, err := runClosure(term)
			if err != nil {
				t.Fatalf("%s: %v", lambda.String(term), err)
			}
			if tree != closure {
				t.Errorf("%s:\ntree:    %s\nclosure: %s", lambda.String(term), tree, closure)
			}
		}
	}
}

// runTree evaluates term with the tree walker, rendering its value or
// error and what it printed.
func runTree(term lambda.Exp) string {
	m := interp.NewMachine()
	var out bytes.Buffer
	m.Stdout = &out
	v, err := m.Eval(term, nil)
	return render(v, err, &out)
}

// runClosure compiles term as the body of a function, applies it with
// the closure builder's engine, and renders the result as runTree does.
func runClosure(term lambda.Exp) (string, error) {
	cf, _, _, err := interp.CompileFn("prim.sml", &lambda.Fn{Param: 1, Body: term})
	if err != nil {
		return "", err
	}
	m := interp.NewMachine()
	var out bytes.Buffer
	m.Stdout = &out
	v, err := m.Apply(&interp.CompiledClosure{Fn: cf}, interp.Unit())
	return render(v, err, &out), nil
}

func render(v interp.Value, err error, out *bytes.Buffer) string {
	if err != nil {
		return "error " + err.Error() + " printed " + out.String()
	}
	return interp.String(v) + " printed " + out.String()
}

// primSamples gives each op argument vectors that cover its cases,
// including the ones that raise or crash.
func primSamples() map[lambda.Op][][]lambda.Exp {
	i := func(n int64) lambda.Exp { return &lambda.Int{Val: n} }
	r := func(x float64) lambda.Exp { return &lambda.Real{Val: x} }
	w := func(n uint64) lambda.Exp { return &lambda.Word{Val: n} }
	s := func(x string) lambda.Exp { return &lambda.Str{Val: x} }
	ch := func(c byte) lambda.Exp { return &lambda.Char{Val: c} }
	tup := func(es ...lambda.Exp) lambda.Exp { return &lambda.Record{Fields: es} }
	list := func(es ...lambda.Exp) lambda.Exp {
		l := lambda.Exp(&lambda.Con{Tag: 0, Name: "nil"})
		for k := len(es) - 1; k >= 0; k-- {
			l = &lambda.Con{Tag: 1, Name: "::", Arg: tup(es[k], l)}
		}
		return l
	}
	prim := func(op lambda.Op, es ...lambda.Exp) lambda.Exp { return &lambda.Prim{Op: op, Args: es} }
	exn := func(name string) lambda.Exp { return &lambda.ExnCon{Tag: &lambda.Builtin{Name: name}} }
	arr := prim(lambda.OpArrayFromList, list(i(1), i(2)))
	vec := prim(lambda.OpVectorFromList, list(i(1)))
	ordered := [][]lambda.Exp{
		{i(1), i(2)}, {s("b"), s("a")}, {ch('a'), ch('a')}, {r(1), r(2)}, {w(3), w(2)}, {i(1), s("x")},
		{r(math.NaN()), r(1)}, {r(1), r(math.NaN())},
	}
	return map[lambda.Op][][]lambda.Exp{
		lambda.OpAdd:            {{i(2), i(3)}, {r(1.5), r(2)}, {w(7), w(8)}, {i(math.MaxInt64), i(1)}, {i(1), s("x")}},
		lambda.OpSub:            {{i(2), i(5)}, {i(math.MinInt64), i(1)}, {w(1), w(2)}, {r(1), r(3)}},
		lambda.OpMul:            {{i(6), i(7)}, {i(1 << 40), i(1 << 40)}, {i(-1), i(math.MinInt64)}, {i(math.MinInt64), i(-1)}, {r(1.5), r(2)}, {w(3), w(5)}},
		lambda.OpDiv:            {{i(-7), i(2)}, {i(1), i(0)}, {i(math.MinInt64), i(-1)}, {w(7), w(2)}},
		lambda.OpMod:            {{i(-7), i(2)}, {i(7), i(-2)}, {i(math.MinInt64), i(-1)}, {w(7), w(0)}},
		lambda.OpQuot:           {{i(-7), i(2)}, {i(1), i(0)}, {i(math.MinInt64), i(-1)}},
		lambda.OpRem:            {{i(-7), i(2)}, {i(1), i(0)}, {i(math.MinInt64), i(-1)}},
		lambda.OpFdiv:           {{r(1), r(4)}},
		lambda.OpNeg:            {{i(5)}, {i(math.MinInt64)}, {r(2.5)}, {w(1)}, {s("x")}},
		lambda.OpAbs:            {{i(-5)}, {i(5)}, {r(-2)}, {i(math.MinInt64)}},
		lambda.OpLt:             ordered,
		lambda.OpLe:             ordered,
		lambda.OpGt:             ordered,
		lambda.OpGe:             ordered,
		lambda.OpEq:             {{i(3), i(3)}, {s("x"), s("y")}, {tup(i(1), s("a")), tup(i(1), s("a"))}},
		lambda.OpNe:             {{i(3), i(3)}, {s("x"), s("y")}},
		lambda.OpConcat:         {{s("ab"), s("cd")}},
		lambda.OpSize:           {{s("hello")}},
		lambda.OpStr:            {{ch('x')}},
		lambda.OpChr:            {{i(66)}, {i(300)}},
		lambda.OpOrd:            {{ch('A')}},
		lambda.OpExplode:        {{s("hi")}},
		lambda.OpImplode:        {{list(ch('o'), ch('k'))}},
		lambda.OpSubstring:      {{tup(s("hello"), i(1), i(3))}, {tup(s("hello"), i(4), i(3))}, {tup(s("hello"), i(1), i(math.MaxInt64))}},
		lambda.OpReal:           {{i(3)}},
		lambda.OpFloor:          {{r(-1.5)}, {r(1e300)}},
		lambda.OpCeil:           {{r(1.2)}, {r(math.NaN())}},
		lambda.OpRound:          {{r(2.5)}, {r(3.5)}},
		lambda.OpTrunc:          {{r(-2.7)}},
		lambda.OpSqrt:           {{r(2)}},
		lambda.OpLn:             {{r(1)}},
		lambda.OpExp:            {{r(0)}},
		lambda.OpSin:            {{r(0)}},
		lambda.OpCos:            {{r(0)}},
		lambda.OpAtan:           {{r(1)}},
		lambda.OpIntToString:    {{i(-42)}},
		lambda.OpRealToString:   {{r(2.5)}},
		lambda.OpRef:            {{i(1)}},
		lambda.OpDeref:          {{prim(lambda.OpRef, i(1))}},
		lambda.OpAssign:         {{prim(lambda.OpRef, i(1)), i(2)}},
		lambda.OpPrint:          {{s("hello\n")}},
		lambda.OpExnName:        {{exn("Div")}},
		lambda.OpExnMatches:     {{exn("Div"), &lambda.Builtin{Name: "Div"}}, {exn("Div"), &lambda.Builtin{Name: "Bind"}}},
		lambda.OpRaiseMatch:     {{}},
		lambda.OpRaiseBind:      {{}},
		lambda.OpAndb:           {{w(12), w(10)}},
		lambda.OpOrb:            {{w(12), w(10)}},
		lambda.OpXorb:           {{w(12), w(10)}},
		lambda.OpNotb:           {{w(0)}},
		lambda.OpLshift:         {{w(1), w(63)}, {w(1), w(64)}, {w(1), w(70)}},
		lambda.OpRshift:         {{w(256), w(4)}, {w(1 << 63), w(63)}, {w(1 << 63), w(64)}},
		lambda.OpWordToInt:      {{w(5)}, {w(1 << 63)}},
		lambda.OpIntToWord:      {{i(-1)}},
		lambda.OpArray:          {{tup(i(3), s("x"))}, {tup(i(-1), i(0))}},
		lambda.OpArrayFromList:  {{list(i(1), i(2))}},
		lambda.OpAsub:           {{tup(arr, i(1))}, {tup(arr, i(2))}},
		lambda.OpAupdate:        {{tup(arr, i(0), i(9))}, {tup(arr, i(-1), i(9))}},
		lambda.OpAlength:        {{arr}},
		lambda.OpVectorFromList: {{list(i(1))}},
		lambda.OpVsub:           {{tup(vec, i(0))}, {tup(vec, i(5))}},
		lambda.OpVlength:        {{vec}},
	}
}

// wantBoth checks that term renders as want under the tree walker and
// the closure builder alike.
func wantBoth(t *testing.T, term lambda.Exp, want string) {
	t.Helper()
	tree := runTree(term)
	closure, err := runClosure(term)
	if err != nil {
		t.Fatalf("%s: %v", lambda.String(term), err)
	}
	if tree != want || closure != want {
		t.Errorf("%s:\ntree:    %s\nclosure: %s\nwant:    %s", lambda.String(term), tree, closure, want)
	}
}

// TestPrimEdgeResults pins what SML's Basis gives at the edges of the
// int, real and word ops: ~1 * minInt, minInt div ~1 and minInt quot ~1
// overflow, every ordering of a NaN is false, and a shift by the word
// size or more gives 0.
func TestPrimEdgeResults(t *testing.T) {
	i := func(n int64) lambda.Exp { return &lambda.Int{Val: n} }
	w := func(n uint64) lambda.Exp { return &lambda.Word{Val: n} }
	r := func(x float64) lambda.Exp { return &lambda.Real{Val: x} }
	prim := func(op lambda.Op, es ...lambda.Exp) lambda.Exp { return &lambda.Prim{Op: op, Args: es} }
	const overflow = "error uncaught exception Overflow printed "
	nan := prim(lambda.OpSqrt, r(-1))
	for _, tc := range []struct {
		term lambda.Exp
		want string
	}{
		{prim(lambda.OpMul, i(-1), i(math.MinInt64)), overflow},
		{prim(lambda.OpMul, i(math.MinInt64), i(-1)), overflow},
		{prim(lambda.OpDiv, i(math.MinInt64), i(-1)), overflow},
		{prim(lambda.OpQuot, i(math.MinInt64), i(-1)), overflow},
		{prim(lambda.OpMod, i(math.MinInt64), i(-1)), "0 printed "},
		{prim(lambda.OpRem, i(math.MinInt64), i(-1)), "0 printed "},
		{prim(lambda.OpDiv, i(math.MinInt64), i(2)), "~4611686018427387904 printed "},
		{prim(lambda.OpLt, nan, r(1)), "false printed "},
		{prim(lambda.OpLe, nan, r(1)), "false printed "},
		{prim(lambda.OpGt, nan, r(1)), "false printed "},
		{prim(lambda.OpGe, nan, r(1)), "false printed "},
		{prim(lambda.OpLe, r(1), nan), "false printed "},
		{prim(lambda.OpGe, nan, nan), "false printed "},
		{prim(lambda.OpLe, r(1), r(1)), "true printed "},
		{prim(lambda.OpLshift, w(1), w(63)), "0wx8000000000000000 printed "},
		{prim(lambda.OpLshift, w(1), w(64)), "0wx0 printed "},
		{prim(lambda.OpLshift, w(1), w(70)), "0wx0 printed "},
		{prim(lambda.OpRshift, w(1<<63), w(63)), "0wx1 printed "},
		{prim(lambda.OpRshift, w(1<<63), w(64)), "0wx0 printed "},
		{prim(lambda.OpRshift, w(1<<63), w(70)), "0wx0 printed "},
	} {
		wantBoth(t, tc.term, tc.want)
	}
}

// TestNestedArith runs chains of arithmetic primitives, whose
// intermediate ints the closure builder keeps unboxed, against the tree
// walker: the same value or the same exception, the same output in the
// same order, and the boxed fallback for word and real chains.
func TestNestedArith(t *testing.T) {
	i := func(n int64) lambda.Exp { return &lambda.Int{Val: n} }
	w := func(n uint64) lambda.Exp { return &lambda.Word{Val: n} }
	r := func(x float64) lambda.Exp { return &lambda.Real{Val: x} }
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	prim := func(op lambda.Op, es ...lambda.Exp) lambda.Exp { return &lambda.Prim{Op: op, Args: es} }
	// printing prints s, then evaluates e.
	printing := func(s string, e lambda.Exp) lambda.Exp {
		return &lambda.Let{LV: 9, Bind: prim(lambda.OpPrint, &lambda.Str{Val: s}), Body: e}
	}
	// fold is one step of exec-heavy's fold, (acc * 31 + x) mod 1000003,
	// over acc and x bound by Let.
	fold := func(acc, x lambda.Exp) lambda.Exp {
		return &lambda.Let{LV: 2, Bind: acc, Body: &lambda.Let{LV: 3, Bind: x, Body: prim(lambda.OpMod,
			prim(lambda.OpAdd, prim(lambda.OpMul, v(2), i(31)), v(3)), i(1000003))}}
	}
	const (
		overflow = "error uncaught exception Overflow printed "
		div      = "error uncaught exception Div printed "
	)
	for _, tc := range []struct {
		name string
		term lambda.Exp
		want string
	}{
		{"fold", fold(i(987654), i(1008)), "618192 printed "},
		{"fold-negative", fold(i(-987654), i(5)), "382824 printed "},
		{"deep", prim(lambda.OpSub, prim(lambda.OpQuot, prim(lambda.OpMul, i(1<<40), i(3)), i(7)),
			prim(lambda.OpRem, prim(lambda.OpDiv, i(-1<<41), i(3)), i(1000))), "471219269897 printed "},
		{"inner-overflow", prim(lambda.OpSub, prim(lambda.OpMul, i(math.MaxInt64), i(2)), i(1)), overflow},
		{"inner-neg-one-overflow", prim(lambda.OpAdd, prim(lambda.OpMul, i(-1), i(math.MinInt64)), i(0)), overflow},
		{"inner-div-overflow", prim(lambda.OpMod, prim(lambda.OpDiv, i(math.MinInt64), i(-1)), i(7)), overflow},
		{"root-overflow", prim(lambda.OpAdd, prim(lambda.OpMul, i(1<<31), i(1<<31)), i(math.MaxInt64)), overflow},
		{"inner-zero-divisor", prim(lambda.OpAdd, prim(lambda.OpDiv, i(5), i(0)), i(1)), div},
		{"computed-zero-divisor", prim(lambda.OpMod, i(10), prim(lambda.OpSub, i(1<<20), i(1<<20))), div},
		{"word-chain", prim(lambda.OpMod, prim(lambda.OpAdd, prim(lambda.OpMul, w(1<<40), w(3)), w(1)), w(1000003)), "0wxf126d printed "},
		{"word-zero-divisor", prim(lambda.OpAdd, prim(lambda.OpDiv, w(1), w(0)), w(1)), div},
		{"real-chain", prim(lambda.OpSub, prim(lambda.OpMul, r(1.5), r(2)), r(0.25)), "2.75 printed "},
		{"int-from-other-prim", prim(lambda.OpAdd, prim(lambda.OpSize, &lambda.Str{Val: "abc"}), prim(lambda.OpMul, i(10000), i(3))), "30003 printed "},
		{"ill-typed", prim(lambda.OpAdd, prim(lambda.OpMul, i(2), i(3)), &lambda.Str{Val: "x"}), `error runtime crash: add of 6 and "x" printed `},
		{"source-order", prim(lambda.OpAdd,
			printing("a", prim(lambda.OpMul, printing("b", i(100000)), printing("c", i(3)))),
			printing("d", prim(lambda.OpSub, printing("e", i(9)), printing("f", i(4))))), "300005 printed abcdef"},
		{"source-order-raise", prim(lambda.OpAdd,
			printing("a", prim(lambda.OpDiv, printing("b", i(1)), printing("c", i(0)))),
			printing("d", i(1))), "error uncaught exception Div printed abc"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantBoth(t, tc.term, tc.want) })
	}
}

// TestForgedPrimArityRejected: a Prim whose operand count is not its
// op's arity fails CompileFn and LoadFn, in the root body and in a
// nested function that LoadFn defers and nothing ever calls, instead of
// indexing past its operands at run time.
func TestForgedPrimArityRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		prim *lambda.Prim
		// coords is the code section of the root-body form: one
		// (delta, slot) pair per Var, the parameter at delta 0, slot 0.
		coords []byte
	}{
		{"add-one-operand", &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{&lambda.Var{LV: 1}}}, []byte{0, 0}},
		{"size-no-operand", &lambda.Prim{Op: lambda.OpSize}, []byte{}},
		// Inside an arithmetic chain, whose inner ops compile to int nodes.
		{"mul-one-operand-in-chain", &lambda.Prim{Op: lambda.OpAdd, Args: []lambda.Exp{
			&lambda.Prim{Op: lambda.OpMul, Args: []lambda.Exp{&lambda.Var{LV: 1}}}, &lambda.Int{Val: 1}}}, []byte{0, 0}},
		{"mod-three-operands-in-chain", &lambda.Prim{Op: lambda.OpSub, Args: []lambda.Exp{&lambda.Int{Val: 1},
			&lambda.Prim{Op: lambda.OpMod, Args: []lambda.Exp{&lambda.Var{LV: 1}, &lambda.Int{Val: 2}, &lambda.Int{Val: 3}}}}}, []byte{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := &lambda.Fn{Param: 1, Body: tc.prim}
			if _, _, _, err := interp.CompileFn("forged.sml", root); err == nil {
				t.Error("CompileFn accepted the forged Prim")
			}
			if _, err := interp.LoadFn("forged.sml", root, nil, tc.coords); err == nil || !strings.Contains(err.Error(), "operands") {
				t.Errorf("LoadFn of the root body: %v, want an operand-count error", err)
			}
			// Under an inner fn the parameter is one frame up.
			nested := &lambda.Fn{Param: 1, Body: &lambda.Fn{Param: 2, Body: tc.prim}}
			coords := bytes.Clone(tc.coords)
			if len(coords) > 0 {
				coords[0] = 1
			}
			if _, err := interp.LoadFn("forged.sml", nested, nil, coords); err == nil || !strings.Contains(err.Error(), "operands") {
				t.Errorf("LoadFn of a nested function: %v, want an operand-count error", err)
			}
			if _, _, _, err := interp.CompileFn("forged.sml", nested); err == nil || !strings.Contains(err.Error(), "operands") {
				t.Errorf("CompileFn of a nested function: %v, want an operand-count error", err)
			}
		})
	}
}
