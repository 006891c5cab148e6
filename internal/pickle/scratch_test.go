package pickle_test

// Lazy terms (DESIGN.md §4j): a load decodes a unit's lambda term into
// a pooled Scratch, builds the root body and releases the scratch; a
// first call does the same for one function's subtree. That is sound
// only if nothing built keeps a scratch node. These tests poison every
// scratch node on release and require the program to run exactly as
// it does unpoisoned.

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// scratchExtraProject applies functions of every shape a switch, a
// handler, a mutual recursion, a ref and a closure take, which the
// generated golden corpus (straight-line code) mostly does not.
var scratchExtraProject = []core.File{
	{Name: "shapes.sml", Source: `
structure Shapes = struct
  datatype shape = Circle of int | Rect of int * int | Dot
  fun area (Circle r) = 3 * r * r
    | area (Rect (w, h)) = w * h
    | area Dot = 0
  fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
  fun name 0 = "zero" | name 1 = "one" | name _ = "many"
  fun grade "a" = 4 | grade "b" = 3 | grade _ = 0
  fun classify #"x" = 1 | classify #"y" = 2 | classify _ = 0
  fun mask 0w1 = 10 | mask 0w2 = 20 | mask _ = 30
  exception Neg of int
  fun safe n = if n < 0 then raise Neg n else n
  fun sum [] = 0 | sum (x :: xs) = x + sum xs
  fun even 0 = true | even n = odd (n - 1)
  and odd 0 = false | odd n = even (n - 1)
  val big = 1000000007
  fun scale k xs = map (fn x => k * x + big) xs
end
`},
	{Name: "main.sml", Source: `
open Shapes
val counter = ref 0
fun tick () = counter := !counter + 1
val _ = print (Int.toString (fib 15) ^ " " ^ name 1 ^ " " ^ name 7 ^ "\n")
val _ = print (Int.toString (sum (map area [Circle 2, Rect (3, 4), Dot])) ^ "\n")
val _ = print (Int.toString (safe (~3) handle Neg k => k * 100) ^ "\n")
val _ = print (Int.toString (grade "b" + classify #"y" + mask 0w2) ^ "\n")
val _ = (tick (); tick (); print (Int.toString (!counter) ^ "\n"))
val _ = print ((if even 10 andalso odd 7 then "yes" else "no") ^ "\n")
val _ = print (Int.toString (sum (scale 3 [1, 2, 3])) ^ " " ^ Real.toString 2.5 ^ "\n")
`},
}

// warmRun is what one build over a warm store observably produced.
type warmRun struct {
	out     string
	steps   uint64
	profile []byte
}

func buildWarm(t *testing.T, store core.Store, files []core.File, period uint64) warmRun {
	t.Helper()
	var out bytes.Buffer
	m := &core.Manager{
		Store: store, Jobs: 2, ProfilePeriod: period,
		EnvCache: pickle.NewEnvCache(0), Stdout: &out,
	}
	s, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Loaded != len(files) {
		t.Fatalf("warm build loaded %d of %d units", m.Stats.Loaded, len(files))
	}
	r := warmRun{out: out.String(), steps: s.Machine.Steps}
	if m.Prof != nil {
		var folded bytes.Buffer
		if err := m.Prof.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(m.Prof.Report("scratch"))
		if err != nil {
			t.Fatal(err)
		}
		r.profile = append(rep, folded.Bytes()...)
	}
	return r
}

// TestScratchPoisonedRunsMatch loads and runs the golden corpus, plus a
// program that applies many kinds of function, from a warm store with
// every scratch node poisoned on release: program output, steps and
// profile must equal an unpoisoned run's, with the profiler off and
// on.
func TestScratchPoisonedRunsMatch(t *testing.T) {
	projects := map[string][]core.File{"extra": scratchExtraProject}
	for name, p := range workload.GoldenCorpus() {
		projects[name] = p.Files
	}
	names := make([]string, 0, len(projects))
	for n := range projects {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, pname := range names {
		files := projects[pname]
		store := core.NewMemStore()
		cold := &core.Manager{Store: store, Jobs: 1, EnvCache: pickle.NewEnvCache(0), Stdout: &bytes.Buffer{}}
		if _, err := cold.Build(files); err != nil {
			t.Fatalf("%s: cold build: %v", pname, err)
		}
		for _, period := range []uint64{0, 3} {
			want := buildWarm(t, store, files, period)
			restore := pickle.PoisonScratch()
			got := buildWarm(t, store, files, period)
			restore()
			if want.steps == 0 {
				t.Errorf("%s: no steps taken", pname)
			}
			if got.out != want.out || got.steps != want.steps {
				t.Errorf("%s profile=%d: poisoned run printed %q in %d steps, unpoisoned %q in %d",
					pname, period, got.out, got.steps, want.out, want.steps)
			}
			if !bytes.Equal(got.profile, want.profile) {
				t.Errorf("%s profile=%d: poisoned run's profile differs", pname, period)
			}
		}
	}
}
