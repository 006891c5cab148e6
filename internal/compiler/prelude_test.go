package compiler

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/interp"
)

// evalInt runs src and returns the int value bound to `out`.
func evalInt(t *testing.T, src string) int64 {
	t.Helper()
	s, _ := mustSession(t)
	run(t, s, "t", src)
	v := valueOf(t, s, "out")
	n, ok := v.(interp.IntV)
	if !ok {
		t.Fatalf("out = %s, not int", interp.String(v))
	}
	return int64(n)
}

// evalStr runs src and returns the string bound to `out`.
func evalStr(t *testing.T, src string) string {
	t.Helper()
	s, _ := mustSession(t)
	run(t, s, "t", src)
	v := valueOf(t, s, "out")
	str, ok := v.(interp.StrV)
	if !ok {
		t.Fatalf("out = %s, not string", interp.String(v))
	}
	return string(str)
}

// evalBool runs src and returns the bool bound to `out`.
func evalBool(t *testing.T, src string) bool {
	t.Helper()
	s, _ := mustSession(t)
	run(t, s, "t", src)
	return interp.Truth(valueOf(t, s, "out"))
}

// TestPreludeSharedASTConcurrent bootstraps several sessions at once
// from the one prelude parse: elaboration only reads the shared syntax
// (run it under -race), and every session ends up with the same
// prelude unit.
func TestPreludeSharedASTConcurrent(t *testing.T) {
	const n = 4
	prelude := make([]*Unit, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession(io.Discard)
			if err != nil {
				errs[i] = err
				return
			}
			prelude[i] = s.Units[0]
			_, errs[i] = s.Run("t", `val out = length (List.concat [[1], [2, 3]])`)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if prelude[i].StatPid != prelude[0].StatPid || !bytes.Equal(prelude[i].CodeBytes, prelude[0].CodeBytes) {
			t.Errorf("session %d: prelude unit differs from session 0's", i)
		}
	}
	a, _ := preludeDecs()
	b, _ := preludeDecs()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("prelude parsed more than once")
	}
}

func TestPreludeListFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`val out = length [1, 2, 3]`, 3},
		{`val out = hd [7, 8]`, 7},
		{`val out = hd (tl [7, 8])`, 8},
		{`val out = length ([1] @ [2, 3])`, 3},
		{`val out = hd (rev [1, 2, 3])`, 3},
		{`val out = foldl (fn (a, b) => a + b) 0 [1, 2, 3, 4]`, 10},
		{`val out = foldr (fn (a, b) => a - b) 0 [10, 3]`, 7}, // 10 - (3 - 0)
		{`val out = hd (map (fn x => x * 2) [21])`, 42},
		{`val out = length (List.filter (fn x => x > 2) [1, 2, 3, 4])`, 2},
		{`val out = if List.exists (fn x => x = 3) [1, 3] then 1 else 0`, 1},
		{`val out = if List.all (fn x => x > 0) [1, 2] then 1 else 0`, 1},
		{`val out = valOf (List.find (fn x => x mod 2 = 0) [1, 4, 6])`, 4},
		{`val out = List.nth ([10, 20, 30], 1)`, 20},
		{`val out = length (List.take ([1, 2, 3, 4], 2))`, 2},
		{`val out = hd (List.drop ([1, 2, 3], 2))`, 3},
		{`val out = length (List.concat [[1], [2, 3], []])`, 3},
		{`val out = List.nth (List.tabulate (5, fn i => i * i), 4)`, 16},
		{`val out = List.last [1, 2, 9]`, 9},
		{`val out = case List.zip ([1, 2], ["a", "b", "c"]) of (n, _) :: _ => n | nil => 0`, 1},
		{`val out = hd nil handle Empty => 99`, 99},
	}
	for _, c := range cases {
		if got := evalInt(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestPreludeStringFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`val out = String.concat ["a", "b", "c"]`, "abc"},
		{`val out = String.concatWith ", " ["x", "y"]`, "x, y"},
		{`val out = String.concatWith ", " nil`, ""},
		{`val out = str (String.sub ("hello", 1))`, "e"},
		{`val out = substring ("hello", 1, 3)`, "ell"},
		{`val out = implode (rev (explode "abc"))`, "cba"},
		{`val out = Int.toString 42`, "42"},
		{`val out = Int.toString (~7)`, "~7"},
		{`val out = concat ["1", "2"]`, "12"},
		{`val out = if String.isPrefix "he" "hello" then "y" else "n"`, "y"},
		{`val out = str (Char.toUpper #"q")`, "Q"},
		{`val out = str (Char.toLower #"Q")`, "q"},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPreludeComparisonsAndOrder(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`val out = case Int.compare (1, 2) of LESS => true | _ => false`, true},
		{`val out = case String.compare ("b", "a") of GREATER => true | _ => false`, true},
		{`val out = case Char.compare (#"x", #"x") of EQUAL => true | _ => false`, true},
		{`val out = Int.min (3, 5) = 3 andalso Int.max (3, 5) = 5`, true},
		{`val out = Real.min (1.5, 0.5) < 1.0`, true},
		{`val out = Char.isDigit #"7" andalso not (Char.isDigit #"x")`, true},
		{`val out = Char.isAlpha #"g" andalso Char.isSpace #" "`, true},
		{`val out = not true = false`, true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPreludeOption(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`val out = valOf (SOME 5)`, 5},
		{`val out = getOpt (NONE, 9)`, 9},
		{`val out = getOpt (SOME 1, 9)`, 1},
		{`val out = if isSome (SOME ()) then 1 else 0`, 1},
		{`val out = valOf (Option.mapOpt (fn x => x + 1) (SOME 4))`, 5},
		{`val out = valOf NONE handle Option => 42`, 42},
	}
	for _, c := range cases {
		if got := evalInt(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestPreludeWord(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`val out = Word.toInt (Word.andb (0wxF0, 0wx3C))`, 0x30},
		{`val out = Word.toInt (Word.orb (0w1, 0w2))`, 3},
		{`val out = Word.toInt (Word.xorb (0w5, 0w3))`, 6},
		{`val out = Word.toInt (Word.<< (0w1, 0w4))`, 16},
		{`val out = Word.toInt (Word.>> (0w16, 0w2))`, 4},
		{`val out = Word.toInt (Word.fromInt 12)`, 12},
	}
	for _, c := range cases {
		if got := evalInt(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestPreludeCombinators(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{`val inc = fn x => x + 1
		  val dbl = fn x => x * 2
		  val out = (inc o dbl) 5`, 11},
		{`val out = 7 before ignore 99`, 7},
		{`val out = ~7 quot 2`, -3}, // truncating, unlike div
		{`val out = ~7 rem 2`, -1},
		{`val out = op quot (~9, 2)`, -4},
		{`val out = ~7 div 2`, -4}, // flooring
		{`val out = ~7 mod 2`, 1},
	}
	for _, c := range cases {
		if got := evalInt(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestPreludeStringSplitting(t *testing.T) {
	intCases := []struct {
		src  string
		want int64
	}{
		{`val out = length (String.fields (fn c => c = #",") "a,b,,c")`, 4},
		{`val out = length (String.tokens (fn c => c = #",") "a,b,,c")`, 3},
		{`val out = length (tokens Char.isSpace "  one two  ")`, 2},
		{`val out = valOf (Int.fromString "42")`, 42},
		{`val out = valOf (Int.fromString "~17")`, -17},
		{`val out = getOpt (Int.fromString "12x", ~1)`, -1},
		{`val out = getOpt (Int.fromString "", ~1)`, -1},
	}
	for _, c := range intCases {
		if got := evalInt(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
	strCases := []struct {
		src  string
		want string
	}{
		{`val out = hd (String.tokens Char.isSpace "hello world")`, "hello"},
		{`val out = Bool.toString (1 < 2)`, "true"},
		{`val out = if valOf (Bool.fromString "false") then "t" else "f"`, "f"},
	}
	for _, c := range strCases {
		if got := evalStr(t, c.src); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPreludeRealMath(t *testing.T) {
	s, _ := mustSession(t)
	run(t, s, "t", `
		val f = floor 3.7
		val c = ceil 3.2
		val r = round 2.5
		val tr = trunc (~2.7)
		val sq = sqrt 16.0
		val fi = Real.fromInt 4
	`)
	checks := map[string]int64{"f": 3, "c": 4, "r": 2, "tr": -2}
	for name, want := range checks {
		if got := valueOf(t, s, name); got != interp.IntV(want) {
			t.Errorf("%s = %s, want %d", name, interp.String(got), want)
		}
	}
	if got := valueOf(t, s, "sq"); got != interp.RealV(4) {
		t.Errorf("sqrt 16.0 = %s", interp.String(got))
	}
	if got := valueOf(t, s, "fi"); got != interp.RealV(4) {
		t.Errorf("Real.fromInt 4 = %s", interp.String(got))
	}
}
