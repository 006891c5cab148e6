// Package workload generates synthetic SML projects for the benchmark
// harness: module DAGs of configurable shape and size, plus the edit
// operations (comment-only, implementation-only, interface-changing)
// whose recompilation behaviour the paper's evaluation turns on.
//
// The generated projects stand in for the paper's measured artifact —
// the SML/NJ compiler itself, "about 200 compilation units", 65,000
// lines — which we cannot use directly (our substrate is this
// reproduction's own SML subset). Sizes are calibrated to match: the
// default CompilerScale configuration produces ≈200 units and ≈65k
// lines.
//
// Concurrency: Generate is a pure, deterministic function of its
// Config, and Project values are read-only after generation; the
// package is safe for concurrent use.
package workload

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// Shape selects the dependency-DAG generator.
type Shape int

// Shapes.
const (
	// Chain is a linear dependency chain u0 <- u1 <- ... <- u(n-1).
	Chain Shape = iota
	// Fan has one base unit and n-1 independent dependents.
	Fan
	// Diamond alternates single join units and wide layers.
	Diamond
	// Layered is a random layered DAG with bounded fan-in, the shape of
	// real module hierarchies.
	Layered
)

func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case Fan:
		return "fan"
	case Diamond:
		return "diamond"
	case Layered:
		return "layered"
	}
	return "?"
}

// Config parameterizes a generated project.
type Config struct {
	Shape        Shape
	Units        int
	LinesPerUnit int // approximate source lines per unit
	FunsPerUnit  int // exported functions per unit
	FanIn        int // dependencies per unit (Layered)
	LayerWidth   int // units per layer (Layered, Diamond)
	Functors     bool
	Seed         int64
}

// CompilerScale approximates the paper's measured artifact: ≈200
// units, ≈65k lines (§6: "65,000 lines", §11: "about 200 compilation
// units").
func CompilerScale() Config {
	return Config{
		Shape: Layered, Units: 200, LinesPerUnit: 325, FunsPerUnit: 8,
		FanIn: 3, LayerWidth: 10, Seed: 1994,
	}
}

// Small returns a quick configuration for tests.
func Small() Config {
	return Config{
		Shape: Layered, Units: 12, LinesPerUnit: 30, FunsPerUnit: 3,
		FanIn: 2, LayerWidth: 4, Seed: 7,
	}
}

// GoldenCorpus returns the fixed projects pinned by
// testdata/binfile_golden.json: any change to pickling, hashing, or
// stamp assignment that alters a single byte of any bin file (or any
// pid) shows up as a golden mismatch. Shared by scripts/bingolden
// (which regenerates the file) and TestBinfileGolden (which enforces
// it), so the two can never drift apart. Beside three generated
// projects it holds clausalProject, which pins the code shape of
// curried clausal functions, and crossUnitProject, whose bins carry
// stubs into other user units.
func GoldenCorpus() map[string]*Project {
	return map[string]*Project{
		"layered-30": Generate(Config{
			Shape: Layered, Units: 30, LinesPerUnit: 20,
			FunsPerUnit: 3, FanIn: 2, LayerWidth: 5, Seed: 7,
		}),
		"chain-12": Generate(Config{
			Shape: Chain, Units: 12, LinesPerUnit: 25,
			FunsPerUnit: 4, FanIn: 1, LayerWidth: 1, Seed: 21,
		}),
		"diamond-16": Generate(Config{
			Shape: Diamond, Units: 16, LinesPerUnit: 15,
			FunsPerUnit: 2, FanIn: 3, LayerWidth: 8, Seed: 3,
		}),
		"clausal-3":   clausalProject(),
		"crossunit-6": crossUnitProject(),
	}
}

// crossUnitProject is a hand-written project whose bins carry stubs
// into other user units, which the generated projects' bins do not
// (theirs point only at the basis and the prelude): geometry.sml
// exports a datatype, an exception, a structure, a signature and a
// functor; shapes.sml uses the datatype in its exported types,
// re-exports the structure and ascribes the signature; counters.sml
// applies the functor; safe.sml handles the exception; grow.sml reaches
// the datatype only through shapes.sml, which is its one dependency.
// main.sml prints "10 27 0 3\n#2 10 25\n".
func crossUnitProject() *Project {
	return &Project{
		Files: []core.File{
			{Name: "geometry.sml", Source: `datatype shape = Circle of int | Square of int
exception Negative of int
signature COUNTER = sig
  type t
  val zero : t
  val next : t -> t
  val show : t -> string
  val start : shape
end
structure Geometry = struct
  fun area (Circle r) = 3 * r * r
    | area (Square s) = s * s
  fun check n = if n < 0 then raise Negative n else n
end
functor MakeCounter (S : sig val step : int end) : COUNTER = struct
  type t = int
  val zero = 0
  fun next n = n + S.step
  fun show n = Int.toString n
  val start = Square S.step
end
`},
			{Name: "shapes.sml", Source: `structure Shapes = struct
  structure G = Geometry
  val unit = Square 1
  fun scale k (Circle r) = Circle (k * r)
    | scale k (Square s) = Square (k * s)
  fun pair (a : shape, b : shape) = (a, b)
end
structure Ticker : COUNTER = struct
  type t = int
  val zero = 0
  fun next n = n + 1
  fun show n = "#" ^ Int.toString n
  val start = Circle 0
end
`},
			{Name: "counters.sml", Source: `structure Fives = MakeCounter (struct val step = 5 end)
val fives = Fives.next (Fives.next Fives.zero)
`},
			{Name: "safe.sml", Source: `fun safeArea s = Geometry.check (Geometry.area s) handle Negative n => 0 - n
val checked = Geometry.check (0 - 3) handle Negative n => 0 - n
`},
			{Name: "grow.sml", Source: `val (grown, small) = Shapes.pair (Shapes.scale 3 Shapes.unit, Shapes.unit)
val grownArea = Shapes.G.area grown + Shapes.G.area small
`},
			{Name: "main.sml", Source: `val _ = print (Int.toString grownArea ^ " " ^ Int.toString (safeArea (Square 5) + 2) ^ " "
  ^ Int.toString (safeArea (Circle 0)) ^ " " ^ Int.toString checked ^ "\n")
val _ = print (Ticker.show (Ticker.next (Ticker.next Ticker.zero)) ^ " " ^ Fives.show fives ^ " "
  ^ Int.toString (Geometry.area Fives.start) ^ "\n")
`},
		},
		Deps: [][]int{nil, {0}, {0}, {0}, {1}, {1, 2, 3, 4}},
	}
}

// clausalProject is a hand-written project of curried multi-clause
// functions whose columns are nested tuples, cons, layered, wildcard
// and constant patterns; its units export three values and two, and
// main.sml prints "111 222\n1,2,3,4,9,10\norigin n=15\n30\n".
func clausalProject() *Project {
	return &Project{
		Files: []core.File{
			{Name: "clauses.sml", Source: `fun zip3 (x :: xs) (y :: ys) (z :: zs) = (x, y, z) :: zip3 xs ys zs
  | zip3 _ _ _ = []

fun merge [] ys = ys
  | merge xs [] = xs
  | merge (l as x :: xs) (r as y :: ys) =
      if x <= y then x :: merge xs r else y :: merge l ys

fun classify 0 _ (_, "zero") = "origin"
  | classify n ((a, b), c) (d, s) = s ^ Int.toString (n + a + b + c + d)
`},
			{Name: "pairs.sml", Source: `fun foldPairs f acc ((a, b) :: rest) = foldPairs f (f (a, b, acc)) rest
  | foldPairs _ acc [] = acc

val total = foldPairs (fn (a, b, s) => a * b + s) 0 [(1, 2), (3, 4), (5, 6)]
`},
			{Name: "main.sml", Source: `val sums = map (fn (a, b, c) => a + b + c) (zip3 [1, 2, 3] [10, 20] [100, 200, 300])
val _ = print (String.concatWith " " (map Int.toString sums) ^ "\n")
val _ = print (String.concatWith "," (map Int.toString (merge [1, 4, 9] [2, 3, 10])) ^ "\n")
val _ = print (classify 0 ((1, 2), 3) (4, "zero") ^ " " ^ classify 5 ((1, 2), 3) (4, "n=") ^ "\n")
val _ = print (Int.toString (foldPairs (fn (a, b, s) => s - a - b) total [(7, 7)]) ^ "\n")
`},
		},
		Deps: [][]int{nil, nil, {0, 1}},
	}
}

// Project is a generated module DAG.
type Project struct {
	Config Config
	Files  []core.File
	// Deps records the generated dependency edges (unit index ->
	// dependency indices), for analytic models.
	Deps [][]int
}

// Generate builds the project deterministically from the config.
func Generate(cfg Config) *Project {
	if cfg.Units <= 0 {
		cfg.Units = 1
	}
	if cfg.FunsPerUnit <= 0 {
		cfg.FunsPerUnit = 3
	}
	if cfg.FanIn <= 0 {
		cfg.FanIn = 2
	}
	if cfg.LayerWidth <= 0 {
		cfg.LayerWidth = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Project{Config: cfg, Deps: make([][]int, cfg.Units)}

	for i := 0; i < cfg.Units; i++ {
		p.Deps[i] = depsFor(cfg, rng, i)
	}
	for i := 0; i < cfg.Units; i++ {
		p.Files = append(p.Files, core.File{
			Name:   UnitName(i),
			Source: unitSource(cfg, i, p.Deps[i]),
		})
	}
	return p
}

// UnitName returns the source-file name of unit i.
func UnitName(i int) string { return fmt.Sprintf("u%03d.sml", i) }

// Materialize writes the project to dir as loose source files plus a
// "group.cm" group file listing them in definition order, and returns
// the group file's path — the on-disk form `irm build` consumes.
// `irm gen` uses this to hand CI and profiling runs a reproducible
// project without shipping one in the repository.
func (p *Project) Materialize(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var names []string
	for _, f := range p.Files {
		if err := os.WriteFile(filepath.Join(dir, f.Name), []byte(f.Source), 0o644); err != nil {
			return "", err
		}
		names = append(names, f.Name)
	}
	groupPath := filepath.Join(dir, "group.cm")
	if err := os.WriteFile(groupPath, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
		return "", err
	}
	return groupPath, nil
}

func depsFor(cfg Config, rng *rand.Rand, i int) []int {
	if i == 0 {
		return nil
	}
	switch cfg.Shape {
	case Chain:
		return []int{i - 1}
	case Fan:
		return []int{0}
	case Diamond:
		// Layers of LayerWidth units over a single previous join unit;
		// join units depend on the whole previous layer.
		w := cfg.LayerWidth
		pos := i % (w + 1)
		if pos == 0 {
			// Join unit: depends on the previous layer.
			var deps []int
			for j := i - w; j < i; j++ {
				if j >= 0 {
					deps = append(deps, j)
				}
			}
			return deps
		}
		// Layer unit: depends on the last join unit.
		join := i - pos
		return []int{join}
	case Layered:
		layer := i / cfg.LayerWidth
		if layer == 0 {
			if i == 0 {
				return nil
			}
			return nil
		}
		// Pick FanIn distinct deps from strictly earlier layers, biased
		// to the immediately preceding layer.
		seen := map[int]bool{}
		var deps []int
		for len(deps) < cfg.FanIn {
			var d int
			if rng.Intn(100) < 70 {
				lo := (layer - 1) * cfg.LayerWidth
				hi := layer * cfg.LayerWidth
				if hi > i {
					hi = i
				}
				if hi <= lo {
					break
				}
				d = lo + rng.Intn(hi-lo)
			} else {
				d = rng.Intn(layer * cfg.LayerWidth)
			}
			if d >= i || seen[d] {
				continue
			}
			seen[d] = true
			deps = append(deps, d)
		}
		return deps
	}
	return nil
}

// unitSource generates one unit: a signature, an ascribed structure
// whose functions call into the dependencies, hidden helper functions
// as line filler, and optionally a functor exercised by the next unit.
func unitSource(cfg Config, i int, deps []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(* generated unit %d *)\n", i)

	k := cfg.FunsPerUnit
	fmt.Fprintf(&sb, "signature S%03d = sig\n", i)
	for f := 0; f < k; f++ {
		fmt.Fprintf(&sb, "  val f%d : int -> int\n", f)
	}
	fmt.Fprintf(&sb, "  val tag : string\nend\n\n")

	fmt.Fprintf(&sb, "structure U%03d : S%03d = struct\n", i, i)
	for f := 0; f < k; f++ {
		call := fmt.Sprintf("x + %d", f+1)
		if f > 0 {
			call = fmt.Sprintf("f%d (x + %d)", f-1, f)
		}
		if len(deps) > 0 {
			d := deps[f%len(deps)]
			call = fmt.Sprintf("%s + U%03d.f%d (x - 1) - x", call, d, f%k)
		}
		fmt.Fprintf(&sb, "  fun f%d (x : int) = %s\n", f, call)
	}
	fmt.Fprintf(&sb, "  val tag = \"u%03d\"\n", i)

	// Hidden helpers pad the unit's source to the configured size. The
	// signature ascription thins them away, so editing them is an
	// implementation-only change, and since nothing calls them,
	// lambda.Prune drops them: the bin holds none of their code.
	lines := sb.Len()/24 + 6 // rough lines-so-far estimate
	h := 0
	for lines < cfg.LinesPerUnit-4 {
		fmt.Fprintf(&sb, "  fun h%d (x : int) = x * %d + %d - (x div %d)\n",
			h, h%7+2, h%13, h%5+1)
		h++
		lines++
	}
	sb.WriteString("end\n")

	if cfg.Functors && i%5 == 2 {
		fmt.Fprintf(&sb, `
functor F%03d (X : sig val n : int end) = struct
  val out = U%03d.f0 X.n
end
`, i, i)
	}
	if cfg.Functors && i%5 == 3 && i > 0 {
		prev := i - 1
		if prev%5 == 2 {
			fmt.Fprintf(&sb, `
structure A%03d = F%03d (struct val n = %d end)
`, i, prev, i)
		}
	}
	return sb.String()
}

// LineCount reports the total source lines of the project.
func (p *Project) LineCount() int {
	n := 0
	for _, f := range p.Files {
		n += strings.Count(f.Source, "\n") + 1
	}
	return n
}

// ---------------------------------------------------------------------
// Edits
// ---------------------------------------------------------------------

// EditKind classifies source edits by their interface effect.
type EditKind int

// Edit kinds.
const (
	// CommentEdit adds a comment: no semantic change at all.
	CommentEdit EditKind = iota
	// ImplEdit changes a hidden helper: implementation-only.
	ImplEdit
	// InterfaceEdit adds an exported value: changes the interface.
	InterfaceEdit
)

func (k EditKind) String() string {
	switch k {
	case CommentEdit:
		return "comment"
	case ImplEdit:
		return "implementation"
	case InterfaceEdit:
		return "interface"
	}
	return "?"
}

// Edit returns a copy of the project's files with unit i edited by
// ApplyEdit. generation disambiguates successive edits.
func (p *Project) Edit(i int, kind EditKind, generation int) []core.File {
	files := make([]core.File, len(p.Files))
	copy(files, p.Files)
	files[i].Source = ApplyEdit(files[i].Source, i, kind, generation)
	return files
}

// DownstreamCone returns the set of units transitively dependent on
// unit i (including i), the cone a timestamp build recompiles.
func (p *Project) DownstreamCone(i int) map[int]bool {
	dependents := make([][]int, len(p.Deps))
	for u, ds := range p.Deps {
		for _, d := range ds {
			dependents[d] = append(dependents[d], u)
		}
	}
	cone := map[int]bool{i: true}
	stack := []int{i}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range dependents[u] {
			if !cone[d] {
				cone[d] = true
				stack = append(stack, d)
			}
		}
	}
	return cone
}
