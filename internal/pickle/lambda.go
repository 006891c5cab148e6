package pickle

import (
	"fmt"
	"sync"

	"repro/internal/lambda"
)

// Lambda-IR serialization, used by bin files to store a unit's compiled
// code. The IR is a pure tree; no sharing or stubs are needed.

const (
	lVar = iota
	lInt
	lWord
	lReal
	lStr
	lChar
	lRecord
	lSelect
	lFn
	lFix
	lApp
	lLet
	lCon
	lDecon
	lNewExnTag
	lExnCon
	lExnDecon
	lIf
	lSwitch
	lPrim
	lBuiltin
	lRaise
	lHandle
)

// Lambda writes a lambda expression.
func (p *Pickler) Lambda(e lambda.Exp) {
	switch e := e.(type) {
	case *lambda.Var:
		p.w.byteVal(lVar)
		p.w.int(int(e.LV))
	case *lambda.Int:
		p.w.byteVal(lInt)
		p.w.varint(e.Val)
	case *lambda.Word:
		p.w.byteVal(lWord)
		p.w.uvarint(e.Val)
	case *lambda.Real:
		p.w.byteVal(lReal)
		p.w.float64(e.Val)
	case *lambda.Str:
		p.w.byteVal(lStr)
		p.w.string(e.Val)
	case *lambda.Char:
		p.w.byteVal(lChar)
		p.w.byteVal(e.Val)
	case *lambda.Record:
		p.w.byteVal(lRecord)
		p.w.int(len(e.Fields))
		for _, f := range e.Fields {
			p.Lambda(f)
		}
	case *lambda.Select:
		p.w.byteVal(lSelect)
		p.w.int(e.Idx)
		p.Lambda(e.Rec)
	case *lambda.Fn:
		p.w.byteVal(lFn)
		p.w.int(int(e.Param))
		p.Lambda(e.Body)
	case *lambda.Fix:
		p.w.byteVal(lFix)
		p.w.int(len(e.Names))
		for i, n := range e.Names {
			p.w.int(int(n))
			p.Lambda(e.Fns[i])
		}
		p.Lambda(e.Body)
	case *lambda.App:
		p.w.byteVal(lApp)
		p.Lambda(e.Fn)
		p.Lambda(e.Arg)
	case *lambda.Let:
		p.w.byteVal(lLet)
		p.w.int(int(e.LV))
		p.Lambda(e.Bind)
		p.Lambda(e.Body)
	case *lambda.Con:
		p.w.byteVal(lCon)
		p.w.int(e.Tag)
		p.w.string(e.Name)
		if e.Arg != nil {
			p.w.bool(true)
			p.Lambda(e.Arg)
		} else {
			p.w.bool(false)
		}
	case *lambda.Decon:
		p.w.byteVal(lDecon)
		p.Lambda(e.Exp)
	case *lambda.NewExnTag:
		p.w.byteVal(lNewExnTag)
		p.w.string(e.Name)
	case *lambda.ExnCon:
		p.w.byteVal(lExnCon)
		p.Lambda(e.Tag)
		if e.Arg != nil {
			p.w.bool(true)
			p.Lambda(e.Arg)
		} else {
			p.w.bool(false)
		}
	case *lambda.ExnDecon:
		p.w.byteVal(lExnDecon)
		p.Lambda(e.Exp)
	case *lambda.If:
		p.w.byteVal(lIf)
		p.Lambda(e.Cond)
		p.Lambda(e.Then)
		p.Lambda(e.Else)
	case *lambda.Switch:
		p.w.byteVal(lSwitch)
		p.w.byteVal(byte(e.Kind))
		p.Lambda(e.Scrut)
		p.w.int(e.Span)
		p.w.int(len(e.Cases))
		for _, c := range e.Cases {
			p.w.int(c.Tag)
			p.w.varint(c.IntKey)
			p.w.uvarint(c.WordKey)
			p.w.string(c.StrKey)
			p.Lambda(c.Body)
		}
		if e.Default != nil {
			p.w.bool(true)
			p.Lambda(e.Default)
		} else {
			p.w.bool(false)
		}
	case *lambda.Prim:
		p.w.byteVal(lPrim)
		p.w.string(e.Op)
		p.w.int(len(e.Args))
		for _, a := range e.Args {
			p.Lambda(a)
		}
	case *lambda.Builtin:
		p.w.byteVal(lBuiltin)
		p.w.string(e.Name)
	case *lambda.Raise:
		p.w.byteVal(lRaise)
		p.Lambda(e.Exp)
	case *lambda.Handle:
		p.w.byteVal(lHandle)
		p.Lambda(e.Body)
		p.w.int(int(e.Param))
		p.Lambda(e.Handler)
	default:
		p.w.error("pickle: unknown lambda node %T", e)
	}
}

// termSlab backs the nodes of the terms one decoder reads. A bin's
// lambda segment is a few thousand nodes; allocating each separately
// made term decoding the largest source of allocations on a warm load
// (DESIGN.md §4f). Instead the hot node kinds are carved from chunked
// per-kind backing arrays, and Record fields, Prim arguments and Fix
// binder lists from shared chunks. Every node of a chunk belongs to the
// one term this slab decodes: a kept slab's chunk lives exactly as long
// as that term (interior pointers keep it, nothing else does), and a
// Scratch's slab is rewound and reused once the term's reader is done
// with it. A slab is never shared between decoders running at once.
type termSlab struct {
	vars    slab[lambda.Var]
	ints    slab[lambda.Int]
	records slab[lambda.Record]
	selects slab[lambda.Select]
	fns     slab[lambda.Fn]
	fixes   slab[lambda.Fix]
	names   slab[lambda.LVar]
	fnRefs  slab[*lambda.Fn]
	apps    slab[lambda.App]
	lets    slab[lambda.Let]
	prims   slab[lambda.Prim]
	exps    slab[lambda.Exp]
	// ops interns Prim.Op: a unit uses a handful of distinct operators
	// hundreds of times each.
	ops map[string]string
}

// Every chunk has slabChunk elements. The size trades chunk count
// against the unused tail of each kind's last chunk, which a kept term
// pays for: on the benchmark's 80-unit project (about 6000 nodes per
// unit over a dozen kinds) keeping every term in 1024-element chunks
// allocated 4.9 MB more per null build than 128 did. A run of more than
// slabMaxRun expressions gets its own allocation, so any chunk can
// serve any run.
const (
	slabChunk  = 128
	slabMaxRun = 32
)

// slab hands out elements of T from chunked backing arrays.
type slab[T any] struct {
	free []T
	// chunks are every chunk made, the first used of them handed out
	// since the last rewind.
	chunks [][]T
	used   int
}

// refill takes the next chunk, making one when all are in use.
func (s *slab[T]) refill() {
	if s.used == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.free = s.chunks[s.used]
	s.used++
}

// new returns a pointer to a fresh zero T.
func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		s.refill()
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// run returns n consecutive zero elements. The slice is capped with a
// full slice expression, so an append by a later holder cannot spill
// into a neighbour's elements.
func (s *slab[T]) run(n int) []T {
	if n > slabMaxRun {
		return make([]T, n)
	}
	if len(s.free) < n {
		s.refill()
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// inUse returns the chunks handed out since the last rewind.
func (s *slab[T]) inUse() [][]T { return s.chunks[:s.used] }

// rewind zeroes the chunks handed out and makes them available again.
func (s *slab[T]) rewind() {
	for _, c := range s.inUse() {
		clear(c)
	}
	s.free, s.used = nil, 0
}

// rewind makes every chunk of the slab available again.
func (sl *termSlab) rewind() {
	sl.vars.rewind()
	sl.ints.rewind()
	sl.records.rewind()
	sl.selects.rewind()
	sl.fns.rewind()
	sl.fixes.rewind()
	sl.names.rewind()
	sl.fnRefs.rewind()
	sl.apps.rewind()
	sl.lets.rewind()
	sl.prims.rewind()
	sl.exps.rewind()
	// Operator names are immutable strings, so the intern map carries
	// over; only a forged bin could grow it past the real primitives.
	if len(sl.ops) > maxInternedOps {
		sl.ops = nil
	}
}

const maxInternedOps = 256

// Scratch decodes lambda terms that are read once and dropped: a load
// builds a unit's root body from the term and a first call builds one
// function's body from its subtree, and neither keeps a node
// (DESIGN.md §4j, "Lazy terms"). A Scratch comes from a process-wide
// pool, so concurrent loads each hold their own, and its chunks are
// reused by the next term once it is released. Every term a Scratch
// decoded is invalid after Release.
type Scratch struct {
	u    Unpickler
	slab termSlab
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// scratchReleased, when set (only by tests), is handed each scratch
// slab on release in place of rewinding and pooling it.
var scratchReleased func(*termSlab)

// GetScratch takes a Scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool; the terms it decoded must no longer
// be used.
func (s *Scratch) Release() {
	if scratchReleased != nil {
		scratchReleased(&s.slab)
		return
	}
	s.slab.rewind()
	s.u = Unpickler{}
	scratchPool.Put(s)
}

// Lambda decodes the term that starts at byte off of seg into s with
// Unpickler.Lambda. It returns the term and the offset just past it;
// every decoded Fn's Pos is its offset in seg.
func (s *Scratch) Lambda(seg []byte, off int) (lambda.Exp, int, error) {
	s.u = Unpickler{r: reader{data: seg, pos: off}, slab: &s.slab}
	e := s.u.Lambda()
	return e, s.u.r.pos, s.u.r.err
}

// DecodeTerm decodes a unit's whole lambda segment into a slab of its
// own, for a reader that keeps the term (compiler.Unit.Term). The
// segment must hold exactly one term, and that term must be a function.
func DecodeTerm(seg []byte) (*lambda.Fn, error) {
	u := NewUnpickler(seg, nil)
	e := u.Lambda()
	if err := u.Err(); err != nil {
		return nil, err
	}
	if u.left() != 0 {
		return nil, fmt.Errorf("pickle: %d bytes after the lambda term", u.left())
	}
	fn, ok := e.(*lambda.Fn)
	if !ok {
		return nil, fmt.Errorf("pickle: code is not a function")
	}
	return fn, nil
}

// left bounds how many more nodes the stream can hold.
func (u *Unpickler) left() int { return len(u.r.data) - u.r.pos }

// count reads an element count, rejecting one the remaining stream
// cannot hold (each element costs at least one byte), so a forged count
// can neither force a huge allocation nor spin the decoder.
func (u *Unpickler) count() int {
	n := u.r.int()
	if n < 0 || n > u.left() {
		u.r.error("pickle: bad lambda element count %d", n)
		return 0
	}
	return n
}

// op reads a Prim operator name, interned per slab.
func (u *Unpickler) op() string {
	b := u.r.stringBytes()
	if s, ok := u.slab.ops[string(b)]; ok {
		return s
	}
	s := string(b)
	if u.slab.ops == nil {
		u.slab.ops = make(map[string]string)
	}
	u.slab.ops[s] = s
	return s
}

// exps decodes n expressions into a slab run; on a decode error the run
// is cut to the elements actually decoded.
func (u *Unpickler) exps(n int) []lambda.Exp {
	out := u.slab.exps.run(n)
	for i := range out {
		if u.r.err != nil {
			return out[:i]
		}
		out[i] = u.Lambda()
	}
	return out
}

// Lambda reads a lambda expression.
func (u *Unpickler) Lambda() lambda.Exp {
	if u.slab == nil {
		u.slab = new(termSlab)
	}
	sl := u.slab
	at := u.r.pos
	switch tag := u.r.byteVal(); tag {
	case lVar:
		v := sl.vars.new()
		v.LV = lambda.LVar(u.r.int())
		return v
	case lInt:
		v := sl.ints.new()
		v.Val = u.r.varint()
		return v
	case lWord:
		return &lambda.Word{Val: u.r.uvarint()}
	case lReal:
		return &lambda.Real{Val: u.r.float64()}
	case lStr:
		return &lambda.Str{Val: u.r.string()}
	case lChar:
		return &lambda.Char{Val: u.r.byteVal()}
	case lRecord:
		r := sl.records.new()
		r.Fields = u.exps(u.count())
		return r
	case lSelect:
		sel := sl.selects.new()
		sel.Idx = u.r.int()
		sel.Rec = u.Lambda()
		return sel
	case lFn:
		f := sl.fns.new()
		f.Param = lambda.LVar(u.r.int())
		f.Pos = int32(at)
		f.Body = u.Lambda()
		return f
	case lFix:
		fix := sl.fixes.new()
		n := u.count()
		fix.Names = sl.names.run(n)
		fix.Fns = sl.fnRefs.run(n)
		for i := range fix.Fns {
			fix.Names[i] = lambda.LVar(u.r.int())
			fn, ok := u.Lambda().(*lambda.Fn)
			if !ok {
				u.r.error("pickle: fix binding is not a function")
				fix.Names, fix.Fns = fix.Names[:i], fix.Fns[:i]
				return fix
			}
			fix.Fns[i] = fn
		}
		fix.Body = u.Lambda()
		return fix
	case lApp:
		app := sl.apps.new()
		app.Fn = u.Lambda()
		app.Arg = u.Lambda()
		return app
	case lLet:
		l := sl.lets.new()
		l.LV = lambda.LVar(u.r.int())
		l.Bind = u.Lambda()
		l.Body = u.Lambda()
		return l
	case lCon:
		c := &lambda.Con{Tag: u.r.int(), Name: u.r.string()}
		if u.r.bool() {
			c.Arg = u.Lambda()
		}
		return c
	case lDecon:
		return &lambda.Decon{Exp: u.Lambda()}
	case lNewExnTag:
		return &lambda.NewExnTag{Name: u.r.string()}
	case lExnCon:
		c := &lambda.ExnCon{Tag: u.Lambda()}
		if u.r.bool() {
			c.Arg = u.Lambda()
		}
		return c
	case lExnDecon:
		return &lambda.ExnDecon{Exp: u.Lambda()}
	case lIf:
		c := u.Lambda()
		t := u.Lambda()
		return &lambda.If{Cond: c, Then: t, Else: u.Lambda()}
	case lSwitch:
		sw := &lambda.Switch{Kind: lambda.SwitchKind(u.r.byteVal())}
		sw.Scrut = u.Lambda()
		sw.Span = u.r.int()
		n := u.r.int()
		for i := 0; i < n && u.r.err == nil; i++ {
			c := lambda.Case{
				Tag: u.r.int(), IntKey: u.r.varint(),
				WordKey: u.r.uvarint(), StrKey: u.r.string(),
			}
			c.Body = u.Lambda()
			sw.Cases = append(sw.Cases, c)
		}
		if u.r.bool() {
			sw.Default = u.Lambda()
		}
		return sw
	case lPrim:
		pr := sl.prims.new()
		pr.Op = u.op()
		pr.Args = u.exps(u.count())
		return pr
	case lBuiltin:
		return &lambda.Builtin{Name: u.r.string()}
	case lRaise:
		return &lambda.Raise{Exp: u.Lambda()}
	case lHandle:
		h := &lambda.Handle{}
		h.Body = u.Lambda()
		h.Param = lambda.LVar(u.r.int())
		h.Handler = u.Lambda()
		return h
	default:
		u.r.error("pickle: bad lambda tag %d", tag)
		return &lambda.Record{}
	}
}
