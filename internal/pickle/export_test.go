package pickle

import "repro/internal/lambda"

// Test-only hooks for the external tests in scratch_test.go.

// Poison values: no decoder writes them, and no binder binds them.
const (
	PoisonLVar = lambda.LVar(-1 << 30)
	PoisonInt  = int64(-0x5ca7c4)
)

// PoisonScratch makes every Scratch.Release overwrite each node the
// scratch decoded — Vars and binders get PoisonLVar, Ints PoisonInt,
// every child and list nil — and then drop the scratch instead of
// rewinding it, so the poison stays for anything still holding a node.
// The returned func restores normal releases.
func PoisonScratch() (restore func()) {
	scratchReleased = poison
	return func() { scratchReleased = nil }
}

func poison(sl *termSlab) {
	poisonEach(&sl.vars, func(v *lambda.Var) { v.LV = PoisonLVar })
	poisonEach(&sl.ints, func(v *lambda.Int) { v.Val = PoisonInt })
	poisonEach(&sl.records, func(r *lambda.Record) { r.Fields = nil })
	poisonEach(&sl.selects, func(s *lambda.Select) { *s = lambda.Select{Idx: -1} })
	poisonEach(&sl.fns, func(f *lambda.Fn) { *f = lambda.Fn{Param: PoisonLVar, Pos: -1} })
	poisonEach(&sl.fixes, func(f *lambda.Fix) { *f = lambda.Fix{} })
	poisonEach(&sl.names, func(n *lambda.LVar) { *n = PoisonLVar })
	poisonEach(&sl.fnRefs, func(f **lambda.Fn) { *f = nil })
	poisonEach(&sl.apps, func(a *lambda.App) { *a = lambda.App{} })
	poisonEach(&sl.lets, func(l *lambda.Let) { *l = lambda.Let{LV: PoisonLVar} })
	poisonEach(&sl.prims, func(p *lambda.Prim) { *p = lambda.Prim{Op: "poisoned"} })
	poisonEach(&sl.exps, func(e *lambda.Exp) { *e = nil })
}

func poisonEach[T any](s *slab[T], f func(*T)) {
	for _, c := range s.inUse() {
		for i := range c {
			f(&c[i])
		}
	}
}
