package interp

import (
	"math/rand"
	"testing"
)

func TestReachesMutableImmutable(t *testing.T) {
	immutable := []Value{
		nil,
		IntV(1),
		WordV(2),
		RealV(3.0),
		StrV("s"),
		CharV('c'),
		Unit(),
		Bool(true),
		VecV{IntV(1), StrV("x")},
		tuple(IntV(1), tuple(StrV("nested"))),
		List([]Value{IntV(1), IntV(2), IntV(3)}),
		&ExnTag{Name: "E"},
		&ExnV{Tag: &ExnTag{Name: "E"}, Arg: IntV(7)},
		&ConV{Tag: 1, Name: "SOME", Arg: StrV("v")},
	}
	for _, v := range immutable {
		if ReachesMutable(v) {
			t.Errorf("ReachesMutable(%v) = true, want false", String(v))
		}
	}
}

func TestReachesMutableCells(t *testing.T) {
	r := &RefV{Cell: IntV(0)}
	a := &ArrV{Elems: []Value{IntV(1)}}
	cases := []Value{
		r,
		a,
		tuple(IntV(1), r),
		VecV{a},
		&ConV{Tag: 1, Name: "SOME", Arg: r},
		List([]Value{IntV(1), r}),
		&ExnV{Tag: &ExnTag{Name: "E"}, Arg: a},
	}
	for _, v := range cases {
		if !ReachesMutable(v) {
			t.Errorf("ReachesMutable(%v) = false, want true", String(v))
		}
	}
}

// A closure capturing a ref in its frame chain is reachable mutable
// state — applying it can read or write the cell.
func TestReachesMutableThroughClosures(t *testing.T) {
	r := &RefV{Cell: IntV(0)}
	fr := newFrame(nil, 2)
	fr.slots[0] = IntV(1)
	cpure := &CompiledClosure{Fn: &CompiledFn{NSlots: 2}, Env: fr}
	if ReachesMutable(cpure) {
		t.Error("compiled closure over immutable frame reported mutable")
	}
	up := newFrame(nil, 1)
	up.slots[0] = r
	ccapt := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: newFrame(up, 1)}
	if !ReachesMutable(ccapt) {
		t.Error("compiled closure capturing a ref via a parent frame reported immutable")
	}
}

// Recursive closures are cyclic through their own frame; the visited
// set must terminate the walk.
func TestReachesMutableCyclicClosure(t *testing.T) {
	fr := newFrame(nil, 1)
	cc := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: fr}
	fr.slots[0] = cc
	if ReachesMutable(cc) {
		t.Error("pure recursive compiled closure reported mutable")
	}
	fr2 := newFrame(nil, 2)
	cc2 := &CompiledClosure{Fn: &CompiledFn{NSlots: 2}, Env: fr2}
	fr2.slots[0] = cc2
	fr2.slots[1] = &RefV{Cell: IntV(0)}
	if !ReachesMutable(cc2) {
		t.Error("recursive compiled closure capturing a ref reported immutable")
	}
}

// Ref cycles (a ref whose cell reaches itself) must not loop: the walk
// stops at the cell without dereferencing it.
func TestReachesMutableStopsAtCell(t *testing.T) {
	r := &RefV{}
	r.Cell = tuple(r)
	if !ReachesMutable(r) {
		t.Error("self-referential ref reported immutable")
	}
	if !ReachesMutable(tuple(r)) {
		t.Error("record holding self-referential ref reported immutable")
	}
}

// A true scan must not poison later ones: it stops at the first cell,
// inside nodes it has entered but not finished, so those nodes must be
// rolled back. Two closures sharing one frame that holds a ref must
// both report true, whichever is scanned first.
func TestMutScannerTrueScanRollsBack(t *testing.T) {
	shared := newFrame(nil, 2)
	shared.slots[0] = IntV(1)
	shared.slots[1] = &RefV{Cell: IntV(0)}
	a := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: newFrame(shared, 1)}
	b := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: shared}

	var s MutScanner
	if !s.ReachesMutable(a) {
		t.Fatal("first closure over a ref-holding frame reported immutable")
	}
	if !s.ReachesMutable(b) {
		t.Error("second closure sharing the frame reported immutable: the true scan poisoned the set")
	}
	if len(s.seen) != 0 {
		t.Errorf("after two true scans %d nodes remain marked immutable, want 0", len(s.seen))
	}
}

// A false scan's nodes stay marked — a pure recursive-closure cycle is
// walked once per build — and a later value that reaches a ref beside
// that cycle is still reported, without unmarking the cycle.
func TestMutScannerFalseScanMemoizes(t *testing.T) {
	fr := newFrame(nil, 1)
	cycle := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: fr}
	fr.slots[0] = cycle

	var s MutScanner
	if s.ReachesMutable(cycle) {
		t.Fatal("pure recursive closure reported mutable")
	}
	if _, ok := s.seen[fr]; !ok {
		t.Fatal("false scan did not keep the cycle's frame")
	}

	outer := newFrame(nil, 2)
	outer.slots[0] = cycle
	outer.slots[1] = &RefV{Cell: IntV(0)}
	through := &CompiledClosure{Fn: &CompiledFn{NSlots: 1}, Env: newFrame(outer, 1)}
	if !s.ReachesMutable(through) {
		t.Error("value reaching a ref past a memoized cycle reported immutable")
	}
	if _, ok := s.seen[fr]; !ok {
		t.Error("true scan rolled back a node an earlier false scan proved immutable")
	}
	if s.ReachesMutable(cycle) {
		t.Error("memoized pure cycle reported mutable after a true scan")
	}
	if !s.ReachesMutable(through) {
		t.Error("repeated true scan reported immutable")
	}
}

// A shared MutScanner agrees with one-shot ReachesMutable on every value
// of a random graph of frames, closures, constructors and records with
// heavy sharing and cycles, whatever order the values are scanned in.
func TestMutScannerMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		frames := make([]*Frame, 12)
		for i := range frames {
			var up *Frame
			if i > 0 && rng.Intn(2) == 0 {
				up = frames[rng.Intn(i)]
			}
			frames[i] = newFrame(up, 3)
		}
		vals := make([]Value, 0, 40)
		for i := 0; i < 40; i++ {
			switch rng.Intn(5) {
			case 0:
				vals = append(vals, &CompiledClosure{Fn: &CompiledFn{}, Env: frames[rng.Intn(len(frames))]})
			case 1:
				if rng.Intn(4) == 0 {
					vals = append(vals, &RefV{Cell: IntV(int64(i))})
				} else {
					vals = append(vals, IntV(int64(i)))
				}
			case 2:
				if len(vals) > 0 {
					vals = append(vals, &ConV{Tag: 1, Name: "C", Arg: vals[rng.Intn(len(vals))]})
				}
			case 3:
				if len(vals) > 1 {
					vals = append(vals, tuple(vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]))
				}
			case 4:
				vals = append(vals, Unit())
			}
		}
		// Fill frame slots last, so closures can capture frames that
		// (transitively) hold themselves: recursive-closure cycles.
		for _, fr := range frames {
			for k := range fr.slots {
				fr.slots[k] = vals[rng.Intn(len(vals))]
			}
		}
		var s MutScanner
		for _, i := range rng.Perm(len(vals)) {
			want := ReachesMutable(vals[i])
			if got := s.ReachesMutable(vals[i]); got != want {
				t.Fatalf("trial %d value %d: shared scanner says %v, one-shot %v", trial, i, got, want)
			}
		}
	}
}
