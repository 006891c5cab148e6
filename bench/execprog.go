package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
)

// The exec-heavy program: one Shared unit holding a ref, then compute
// units that each run a naive fib and a fold over a tabulated list and
// print a checksum; every sharedEvery-th compute unit also folds its
// checksum into the shared ref, which makes it a mutable-import unit the
// scheduler must execute in commit order. The seed picks only constants,
// never sizes, so every seed costs the same number of steps.
const (
	execFib     = 19
	execListLen = 2000
	execMod     = 1000003
	sharedEvery = 6
)

// execUnit holds one compute unit's seeded constants.
type execUnit struct {
	mul, add, start int
}

// execProgram is the generated exec-heavy source plus the constants an
// independent implementation needs to predict its output.
type execProgram struct {
	files      []core.File
	units      []execUnit
	sharedInit int
}

func genExecProgram(seed int64, computeUnits int) *execProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &execProgram{sharedInit: rng.Intn(1000)}
	p.files = append(p.files, core.File{Name: "shared.sml", Source: fmt.Sprintf(
		"structure Shared = struct\n  val r = ref %d\nend\n", p.sharedInit)})
	for i := 1; i <= computeUnits; i++ {
		u := execUnit{mul: 1 + rng.Intn(97), add: rng.Intn(1000), start: rng.Intn(100)}
		p.units = append(p.units, u)
		var sb strings.Builder
		fmt.Fprintf(&sb, "structure C%02d = struct\n", i)
		sb.WriteString("  fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n")
		fmt.Fprintf(&sb, "  val xs = List.tabulate (%d, fn i => (i * %d + %d) mod 1009)\n",
			execListLen, u.mul, u.add)
		fmt.Fprintf(&sb, "  val sum = foldl (fn (x, acc) => (acc * 31 + x) mod %d) %d xs\n",
			execMod, u.start)
		fmt.Fprintf(&sb, "  val check = (fib %d + sum) mod %d\n", execFib, execMod)
		if i%sharedEvery == 0 {
			fmt.Fprintf(&sb, "  val _ = Shared.r := (!Shared.r * 7 + check) mod %d\n", execMod)
			fmt.Fprintf(&sb, "  val _ = print (\"C%02d \" ^ Int.toString check ^ \" shared \" ^ Int.toString (!Shared.r) ^ \"\\n\")\n", i)
		} else {
			fmt.Fprintf(&sb, "  val _ = print (\"C%02d \" ^ Int.toString check ^ \"\\n\")\n", i)
		}
		sb.WriteString("end\n")
		p.files = append(p.files, core.File{Name: fmt.Sprintf("c%02d.sml", i), Source: sb.String()})
	}
	return p
}

// expectedOutput computes the program's stdout in Go, independently of
// the compiler under test. Units print in commit order, which is file
// order because the compute units depend only on Shared.
func (p *execProgram) expectedOutput() string {
	fib := func(n int) int {
		a, b := 0, 1
		for ; n > 0; n-- {
			a, b = b, a+b
		}
		return a
	}(execFib)
	var sb strings.Builder
	shared := p.sharedInit
	for i, u := range p.units {
		sum := u.start
		for k := 0; k < execListLen; k++ {
			sum = (sum*31 + (k*u.mul+u.add)%1009) % execMod
		}
		check := (fib + sum) % execMod
		if (i+1)%sharedEvery == 0 {
			shared = (shared*7 + check) % execMod
			fmt.Fprintf(&sb, "C%02d %d shared %d\n", i+1, check, shared)
		} else {
			fmt.Fprintf(&sb, "C%02d %d\n", i+1, check)
		}
	}
	return sb.String()
}
