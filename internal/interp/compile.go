package interp

// The compiled-execution engine (ROADMAP "compile codeUnits to
// closures"): a one-pass compiler from lambda terms to trees of Go
// closures over array-indexed activation frames. Where a tree walker
// resolves every variable by a scan of a linked environment at each
// occurrence, this backend resolves each occurrence once, at compile
// time, to a (depth delta, slot index) coordinate; at run time a
// variable reference is one or two pointer hops plus an array index.
//
// The coordinate assignment — the "slot layout" — is the only output
// of resolution, so it is what gets pickled into the bin file's code
// section (binfile V2): per Var in DFS order, the uvarint pair
// (depth delta, slot). Binder slots are recomputed from the term shape
// itself at load, so warm builds rebuild the compiled form without
// ever constructing an LVar scope map (see DESIGN.md §4j). A compiled
// and a loaded unit are then one form: the root body is built, and
// every nested function is built on its first call from the unit's
// pickled term and its code section ("Lazy function bodies",
// DESIGN.md §4j).

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lambda"
	"repro/internal/pickle"
)

// frameInline is the widest frame served from the inline array (and
// from the machine's frame pool).
const frameInline = 4

// Frame is one activation record of the compiled engine: the values of
// a function's parameter (slot 0) and body binders, linked to the
// lexically enclosing activation. Frames up to frameInline slots wide
// use the inline array, so a typical application costs one allocation
// at most — and none at all when the frame is non-escaping and pooled.
type Frame struct {
	up     *Frame
	slots  []Value
	inline [frameInline]Value
}

func newFrame(up *Frame, n int) *Frame {
	fr := &Frame{up: up}
	if n <= len(fr.inline) {
		fr.slots = fr.inline[:n]
	} else {
		fr.slots = make([]Value, n)
	}
	return fr
}

// cnode is one compiled expression: evaluate under an activation frame.
type cnode func(m *Machine, fr *Frame) Value

// CompiledFn is a function's code in compiled form. Its fields are
// ordered to pack the header into 64 bytes: CompileFn and LoadFn
// allocate one per function of every unit.
type CompiledFn struct {
	body cnode
	// inner is the function this one's body is, when the body is a
	// literal Fn (a curried `fn a => fn b => ...` level), else nil.
	// Applying this function just closes inner over the new frame,
	// which is what lets a saturated call chain skip building that
	// closure (applyChain).
	inner *CompiledFn
	tab   *fnTable

	// NSlots is the activation-frame width: slot 0 holds the argument,
	// the rest the body's Let/Fix/Handle binders in allocation order.
	NSlots int32

	// ID is this function's index in the one shared DFS walk of its
	// unit's term — the profiler's function identity. Because resolve
	// and decode mode share the walk, CompileFn and LoadFn assign the
	// same IDs by construction, so a profile captured from a cold
	// compile and from a warm bin load attribute identically. Neither
	// ID nor tab is serialized: the bin code section stays byte-for-
	// byte what it was without the profiler.
	ID int32
	// Parent is the ID of the lexically enclosing function, -1 for the
	// root.
	Parent int32
	// Pos is the offset of the function's term in the unit's lambda
	// segment, 0 for the root: the Pos of its Fn in the segment decoded,
	// by which the profiler's symbolizer finds the function's name.
	Pos int32

	// A nested function is compiled or loaded without its body:
	// pending stays set until the first application decodes its term
	// from byte Pos of the unit's lambda segment and builds body from it
	// and the section bytes [start, end), which CompileFn wrote and
	// LoadFn has validated. nested counts the functions inside this one
	// — their IDs follow this one's in DFS preorder — so that building
	// this body links to their headers and skips their bytes.
	pending    atomic.Bool
	start, end int32
	nested     int32

	// escapes reports whether an activation frame of this function can
	// outlive the call: any Fn or Fix node under the body creates a
	// closure whose captured chain includes this frame. A non-escaping
	// frame is returned to the machine's pool after the call, making
	// hot first-order applications (arithmetic recursion) allocation-
	// free. Computed from the term shape alone, so CompileFn and LoadFn
	// agree by construction. A join point (comp.joinLet) creates no
	// closure, so it does not make the frames it is bound in escape.
	escapes bool

	// borrows reports whether a call may lend this function a tuple
	// argument it takes back when the call returns: the function's
	// frame does not escape, and every read of its parameter is the
	// record of a Select in the function's own activation — never a
	// read from a nested function or a join point's body, which run in
	// frames of their own. Such a body keeps the fields it selects but
	// never the tuple itself. A frame that escapes would keep the tuple
	// in its slot 0, where MutScanner reads the frames of completed
	// calls. Decided by the same walk as escapes, so CompileFn and
	// LoadFn agree by construction.
	borrows bool
}

// fnTable is the per-unit side table shared by every CompiledFn of one
// compiled term: the unit name (fixed when CompileFn or LoadFn builds
// the table, so a program shared by many machines is never written
// once built), every function's header by ID, and the lambda segment
// and code section the pending bodies are read from; mu serializes
// building them, and built counts the bodies built so far.
type fnTable struct {
	unit    string
	fns     []*CompiledFn
	term    []byte
	section []byte
	mu      sync.Mutex
	built   int

	// A unit of up to len(inline) functions keeps fns here, so its
	// table grows without allocating.
	inline [4]*CompiledFn
}

func newTable(unit string, term, section []byte) *fnTable {
	t := &fnTable{unit: unit, term: term, section: section}
	t.fns = t.inline[:0]
	return t
}

// Small-int cache: boxing an IntV into a Value allocates, and the int
// primitives (prim.go) produce results in a narrow band overwhelmingly
// often. One shared boxed value is observationally identical to a
// fresh one (IntV is immutable and compared by value).
const (
	smallIntLo   = -512
	smallIntHi   = 8192
	smallIntSpan = smallIntHi - smallIntLo + 1
)

var smallInts = func() [smallIntSpan]Value {
	var t [smallIntSpan]Value
	for i := range t {
		t[i] = IntV(int64(i) + smallIntLo)
	}
	return t
}()

func boxInt(n int64) Value {
	if n >= smallIntLo && n <= smallIntHi {
		return smallInts[n-smallIntLo]
	}
	return IntV(n)
}

// Shared leaf closures. A Var read at delta 0 or 1, a small-int
// constant and unit carry nothing but their slot or value, so one
// prebuilt stateless closure per slot and per constant serves every
// occurrence in every term: compiling or loading a unit allocates no
// closure for those leaves — the bulk of a term's nodes (DESIGN.md §4f).
const (
	sharedSlots   = 256
	sharedConstLo = -16
	sharedConstHi = 255
)

var (
	slotReaders = func() (t [2][sharedSlots]cnode) {
		for slot := range t[0] {
			t[0][slot] = func(m *Machine, fr *Frame) Value { return fr.slots[slot] }
			t[1][slot] = func(m *Machine, fr *Frame) Value { return fr.up.slots[slot] }
		}
		return t
	}()
	intConsts = func() (t [sharedConstHi - sharedConstLo + 1]cnode) {
		for i := range t {
			v := boxInt(int64(i + sharedConstLo))
			t[i] = func(*Machine, *Frame) Value { return v }
		}
		return t
	}()
	unitConst = func() cnode {
		u := Unit()
		return func(*Machine, *Frame) Value { return u }
	}()
)

// CompiledClosure pairs a compiled function with its captured frame
// chain: the one function value Machine.apply applies.
type CompiledClosure struct {
	Fn  *CompiledFn
	Env *Frame
}

func (*CompiledClosure) isValue() {}

// CompileFn compiles unit's code (the λ(import-vector).(exports)
// function of §3) to the closure form. It pickles fn (pickle.EncodeTerm,
// which sets each Fn's Pos) and resolves it, returning the program with
// the pickled term and the serialized slot layout — the bin file's
// lambda segment and code section.
//
// The program is the one LoadFn builds from that term and section: the
// root body is built, and every nested function gets its header and is
// built on its first call, from its subtree of the term decoded again
// and its bytes of the section. Nothing built keeps a node of fn.
func CompileFn(unit string, fn *lambda.Fn) (prog *CompiledFn, term, section []byte, err error) {
	if term, err = pickle.EncodeTerm(fn); err != nil {
		return nil, nil, nil, err
	}
	c := &comp{resolve: true, scope: make(map[lambda.LVar]loc), tab: newTable(unit, term, nil)}
	prog = c.fn(fn)
	if c.err != nil {
		return nil, nil, nil, c.err
	}
	if c.out == nil {
		c.out = []byte{}
	}
	c.tab.section = c.out
	return prog, term, c.out, nil
}

// LoadFn rebuilds the compiled form from the term plus a code section
// produced by CompileFn, skipping scope resolution entirely. Every
// coordinate is validated against the frames the term itself declares,
// and the section must be consumed exactly, so a corrupt or forged
// section yields an error — never a mis-indexed frame. As in CompileFn,
// only the root body is built here: every nested function gets its
// header (ID, parent, frame width, escape flag, and the offset of its
// term in the lambda segment term that fn was decoded from) and is
// built on its first call. Nothing built keeps a node of fn, so fn may
// be a pickle.Scratch term, released once LoadFn returns (DESIGN.md
// §4j, "Lazy terms").
func LoadFn(unit string, fn *lambda.Fn, term, section []byte) (*CompiledFn, error) {
	c := &comp{in: section, tab: newTable(unit, term, section)}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(section) {
		return nil, fmt.Errorf("code section: %d trailing bytes", len(section)-c.pos)
	}
	return cf, nil
}

// loc is a binder's coordinate: the frame that holds it (by absolute
// nesting depth, 1 = outermost function) and its slot in that frame.
type loc struct {
	depth int
	slot  int
}

// comp walks a term once, in one of two coordinate modes: resolve mode
// computes each Var's coordinate from a scope map and appends it to
// the section being built; decode mode reads coordinates back from a
// section, validating as it goes. Both modes share the one walk, so
// slot allocation order — and therefore the meaning of every
// coordinate — is identical by construction.
//
// The shape flag makes the same walk build nothing: it still reads
// and validates every coordinate, allocates every slot and numbers
// every function, but returns before each closure is built. CompileFn
// and LoadFn walk nested functions that way, and forcing a pending
// function later re-walks just its body in build and decode mode.
type comp struct {
	resolve bool
	scope   map[lambda.LVar]loc // resolve mode only
	frames  []openFrame         // the open frames, outermost first
	out     []byte              // resolve mode: section being built
	in      []byte              // decode mode: section being read
	pos     int
	err     error

	// Profiler identity, assigned by the same walk that assigns slots:
	// tab collects each function's header in DFS preorder.
	tab *fnTable

	// Nested functions are walked in shape mode. forcing marks the
	// walk of one pending body, in which each nested function is linked
	// to its header (tab.fns[next]) and its bytes skipped.
	shape   bool
	forcing bool
	next    int32

	// joins holds the join points in scope when building (joinLet), by
	// binder; the shape walk needs none of them.
	joins []joinFn

	hdrs []CompiledFn // newFn's current chunk
}

// openFrame is the walk's state of one open frame.
type openFrame struct {
	nslots  int   // slots allocated so far
	fn      int32 // the ID of the function it is an activation of
	escaped bool  // captured by some closure
	keeps   bool  // its parameter is read other than selected from in place
}

// borrows is CompiledFn.borrows of the frame's function.
func (f openFrame) borrows() bool { return !f.escaped && !f.keeps }

// joinFn is one join point in scope: its binder and its function.
type joinFn struct {
	lv lambda.LVar
	fn *CompiledFn
}

func (c *comp) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *comp) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.in[c.pos:])
	if n <= 0 {
		c.fail("code section: truncated coordinate")
		return 0
	}
	c.pos += n
	return v
}

// coord produces a Var's (depth delta, slot) coordinate. In decode
// mode the delta must name an open frame and the slot must already be
// allocated in it — which, because binders dominate their uses in DFS
// order, guarantees the run-time read stays inside the frame.
func (c *comp) coord(lv lambda.LVar) (delta, slot int) {
	if c.resolve {
		l, ok := c.scope[lv]
		if !ok {
			c.fail("unbound lambda variable v%d", lv)
			return 0, 0
		}
		delta = len(c.frames) - l.depth
		c.out = binary.AppendUvarint(c.out, uint64(delta))
		c.out = binary.AppendUvarint(c.out, uint64(l.slot))
		return delta, l.slot
	}
	d := c.uvarint()
	s := c.uvarint()
	if c.err != nil {
		return 0, 0
	}
	if d >= uint64(len(c.frames)) {
		c.fail("code section: depth delta %d with %d frames open", d, len(c.frames))
		return 0, 0
	}
	if s >= uint64(c.frames[len(c.frames)-1-int(d)].nslots) {
		c.fail("code section: slot %d not yet allocated at delta %d", s, d)
		return 0, 0
	}
	return int(d), int(s)
}

// alloc claims the next slot of the innermost open frame.
func (c *comp) alloc() int {
	top := &c.frames[len(c.frames)-1]
	top.nslots++
	return top.nslots - 1
}

// bind enters lv at the given slot of the innermost frame, returning
// what unbind needs to restore the outer scope (shadowing-safe).
func (c *comp) bind(lv lambda.LVar, slot int) (loc, bool) {
	if !c.resolve {
		return loc{}, false
	}
	old, had := c.scope[lv]
	c.scope[lv] = loc{depth: len(c.frames), slot: slot}
	return old, had
}

func (c *comp) unbind(lv lambda.LVar, old loc, had bool) {
	if !c.resolve {
		return
	}
	if had {
		c.scope[lv] = old
	} else {
		delete(c.scope, lv)
	}
}

// fn compiles one function: a fresh frame with the parameter at slot 0.
// It also assigns the function's profiler ID — its DFS preorder index
// — and records its enclosing function, in the same walk that assigns
// slots, so resolve and decode mode agree on identities exactly as
// they agree on coordinates.
func (c *comp) fn(e *lambda.Fn) *CompiledFn {
	if c.forcing {
		f := c.tab.fns[c.next]
		c.next += 1 + f.nested
		c.pos = int(f.end)
		return f
	}
	f := c.newFn()
	f.ID, f.Parent, f.tab = int32(len(c.tab.fns)), -1, c.tab
	if len(c.frames) > 0 {
		f.Parent = c.frames[len(c.frames)-1].fn
	}
	c.tab.fns = append(c.tab.fns, f)
	deferred := f.Parent >= 0
	shape := c.shape
	if deferred {
		c.shape = true
		f.Pos, f.start = e.Pos, c.offset()
	}
	var fr openFrame
	f.body, fr, f.inner = c.frame(e, f.ID)
	f.NSlots, f.escapes, f.borrows = int32(fr.nslots), fr.escaped, fr.borrows()
	c.shape = shape
	if deferred {
		f.end = c.offset()
		f.nested = int32(len(c.tab.fns)) - 1 - f.ID
		f.pending.Store(true)
	}
	return f
}

// offset is the walk's position in the code section: the bytes written
// so far in resolve mode, read so far in decode mode.
func (c *comp) offset() int32 {
	if c.resolve {
		return int32(len(c.out))
	}
	return int32(c.pos)
}

// fnChunk is how many function headers newFn allocates at once.
const fnChunk = 16

// newFn returns a zeroed function header, carved from a chunk: one
// allocation per fnChunk functions instead of one per function.
func (c *comp) newFn() *CompiledFn {
	if len(c.hdrs) == 0 {
		c.hdrs = make([]CompiledFn, fnChunk)
	}
	f := &c.hdrs[0]
	c.hdrs = c.hdrs[1:]
	return f
}

// frame walks the body of function id in a fresh frame whose slot 0
// holds the parameter, returning the body's code (nil in shape mode),
// the frame's final state, and the body's function when the body is a
// literal Fn (CompiledFn.inner).
func (c *comp) frame(e *lambda.Fn, id int32) (body cnode, fr openFrame, inner *CompiledFn) {
	c.frames = append(c.frames, openFrame{nslots: 1, fn: id})
	old, had := c.bind(e.Param, 0)
	if fn, ok := e.Body.(*lambda.Fn); ok {
		body, inner = c.closure(fn)
	} else {
		body = c.exp(e.Body, true)
	}
	c.unbind(e.Param, old, had)
	top := len(c.frames) - 1
	fr = c.frames[top]
	c.frames = c.frames[:top]
	return body, fr, inner
}

// code returns f's body, building it first if f is still pending.
func (f *CompiledFn) code(m *Machine) cnode {
	if f.pending.Load() {
		f.force(m)
	}
	return f.body
}

// force builds a pending function's body: it decodes the function's
// subtree of the lambda segment into a scratch slab and runs the same
// walk CompileFn or LoadFn ran, now in build and decode mode over just
// this function's bytes, on the machine's pooled open-frame stack. The
// enclosing frames are given their final widths — CompileFn resolved,
// or LoadFn validated, the subtree and every coordinate against the
// narrower widths of the definition point, so neither re-read can fail. The body is published
// by the release store of pending, which the lock-free check in code
// pairs with; the table lock makes concurrent first calls build it
// once.
func (f *CompiledFn) force(m *Machine) {
	t := f.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	if !f.pending.Load() {
		return
	}
	sc := pickle.GetScratch()
	defer sc.Release()
	term, _, err := f.decodeTerm(sc)
	if err != nil {
		m.crash("decoding function %d of %s: %v", f.ID, t.unit, err)
	}
	pl := m.pools()
	c := comp{in: t.section[:f.end], pos: int(f.start), tab: t, forcing: true, next: f.ID + 1, frames: pl.open[:0]}
	for p := f.Parent; p >= 0; p = t.fns[p].Parent {
		c.frames = append(c.frames, openFrame{nslots: int(t.fns[p].NSlots), fn: p})
	}
	slices.Reverse(c.frames)
	body, _, _ := c.frame(term, f.ID)
	if c.err != nil || c.pos != int(f.end) {
		m.crash("building function %d of %s: %v (at byte %d of %d)", f.ID, t.unit, c.err, c.pos, f.end)
	}
	pl.open = c.frames[:0]
	f.body = body
	t.built++
	f.pending.Store(false)
}

// decodeTerm decodes a nested function's term into sc, returning it
// with the offset just past it in the lambda segment.
func (f *CompiledFn) decodeTerm(sc *pickle.Scratch) (*lambda.Fn, int, error) {
	e, end, err := sc.Lambda(f.tab.term, int(f.Pos))
	if err != nil {
		return nil, 0, err
	}
	fn, ok := e.(*lambda.Fn)
	if !ok {
		return nil, 0, fmt.Errorf("term at byte %d is %T, not a function", f.Pos, e)
	}
	return fn, end, nil
}

// Funcs returns every function header of a program by ID, the root
// first. With Force it lets a caller build every function of a
// unit ahead of its first call.
func Funcs(root *CompiledFn) []*CompiledFn { return root.tab.fns }

// Force builds f's body now if it is still pending, exactly as its
// first call would.
func Force(m *Machine, f *CompiledFn) { f.code(m) }

// markEscapes records that a closure is created at the current point:
// its captured chain includes every open frame.
func (c *comp) markEscapes() {
	for i := range c.frames {
		c.frames[i].escaped = true
	}
}

// closure compiles a function literal in value position: its code
// builds a closure over the current frame chain.
func (c *comp) closure(e *lambda.Fn) (cnode, *CompiledFn) {
	c.markEscapes()
	fn := c.fn(e)
	if c.shape {
		return nil, fn
	}
	return func(m *Machine, fr *Frame) Value {
		return &CompiledClosure{Fn: fn, Env: fr}
	}, fn
}

func (c *comp) walkAll(es []lambda.Exp) []cnode {
	if c.shape {
		for _, e := range es {
			c.walk(e)
		}
		return nil
	}
	out := make([]cnode, len(es))
	for i, e := range es {
		out[i] = c.walk(e)
	}
	return out
}

// walk compiles e in a position that is not a tail position.
func (c *comp) walk(e lambda.Exp) cnode { return c.exp(e, false) }

// exp compiles e. tail reports whether e is in tail position — its
// value is the value of the body of the function it runs in — where a
// call is a tail call (DESIGN.md §4j, "Tail calls"): its code returns
// the call to the callFn running the body, whose trampoline makes it. A function's
// body is in tail position, and so are the body of a Let or Fix, the
// arms of an If or Switch, and a handler, when they are in it
// themselves; a handled body never is. Tail position is a property of
// the term, so the walk's slots and coordinates do not depend on it.
func (c *comp) exp(e lambda.Exp, tail bool) cnode {
	if c.shape {
		switch e.(type) {
		case *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
			*lambda.NewExnTag, *lambda.Builtin:
			// Leaves read no coordinate: nothing to validate.
			return nil
		}
	}
	switch e := e.(type) {
	case *lambda.Var:
		return c.read(e.LV, false)
	case *lambda.Int:
		if e.Val >= sharedConstLo && e.Val <= sharedConstHi {
			return intConsts[e.Val-sharedConstLo]
		}
		v := boxInt(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Word:
		v := WordV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Real:
		v := RealV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Str:
		v := StrV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Char:
		v := CharV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Record:
		if len(e.Fields) == 0 {
			return unitConst
		}
		fields := c.walkAll(e.Fields)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			r, vs := NewRecord(len(fields))
			for i, f := range fields {
				vs[i] = f(m, fr)
			}
			return r
		}
	case *lambda.Select:
		var rec cnode
		if v, ok := e.Rec.(*lambda.Var); ok {
			rec = c.read(v.LV, true)
		} else {
			rec = c.walk(e.Rec)
		}
		if c.shape {
			return nil
		}
		idx := e.Idx
		return func(m *Machine, fr *Frame) Value {
			v := rec(m, fr)
			r, ok := Fields(v)
			if !ok || idx >= len(r) {
				m.crash("select .%d from non-record %s", idx, String(v))
			}
			return r[idx]
		}
	case *lambda.Fn:
		body, _ := c.closure(e)
		return body
	case *lambda.Fix:
		c.markEscapes()
		// Allocate all name slots first, then compile the functions and
		// body under the extended scope; at run time the closures are
		// written into the shared frame before the body runs, which ties
		// the mutual-recursion knot through the frame pointer.
		if len(e.Fns) != len(e.Names) {
			c.fail("fix with %d names and %d functions", len(e.Names), len(e.Fns))
			break
		}
		// A single function — every plain `fun` — is captured directly;
		// only a mutually recursive group needs the list, and the shape
		// walk keeps neither.
		var single [1]slotFn
		var group, fns []slotFn
		switch {
		case c.shape:
		case len(e.Names) == 1:
			fns = single[:]
		default:
			group = make([]slotFn, len(e.Names))
			fns = group
		}
		saves := c.saves(len(e.Names))
		for i, name := range e.Names {
			slot := c.alloc()
			c.bindSaving(saves, i, name, slot)
			if fns != nil {
				fns[i].slot = slot
			}
		}
		for i, fn := range e.Fns {
			f := c.fn(fn)
			if fns != nil {
				fns[i].fn = f
			}
		}
		body := c.exp(e.Body, tail)
		c.restore(saves)
		if c.shape {
			return nil
		}
		if group == nil {
			f := single[0]
			return func(m *Machine, fr *Frame) Value {
				fr.slots[f.slot] = &CompiledClosure{Fn: f.fn, Env: fr}
				return body(m, fr)
			}
		}
		return func(m *Machine, fr *Frame) Value {
			for _, f := range group {
				fr.slots[f.slot] = &CompiledClosure{Fn: f.fn, Env: fr}
			}
			return body(m, fr)
		}
	case *lambda.App:
		if v, ok := e.Fn.(*lambda.Var); ok {
			if fn := c.joinOf(v.LV); fn != nil {
				return c.joinCall(v.LV, fn, e.Arg, tail)
			}
		}
		if k := chainLen(e); k > 1 {
			return c.chain(e, k, tail)
		}
		if n := tupleArity(e.Arg); n != 0 {
			return c.tupleCall(e, n, tail)
		}
		fnc := c.walk(e.Fn)
		argc := c.walk(e.Arg)
		if c.shape {
			return nil
		}
		if tail {
			return func(m *Machine, fr *Frame) Value {
				return m.tailApply(fnc(m, fr), argc(m, fr))
			}
		}
		return func(m *Machine, fr *Frame) Value {
			// apply does not inline: calling callFn straight from here
			// saves a Go call on the hottest path.
			f, arg := fnc(m, fr), argc(m, fr)
			if c, ok := f.(*CompiledClosure); ok {
				return m.callFn(c.Fn, c.Env, arg)
			}
			return m.apply(f, arg)
		}
	case *lambda.Let:
		if fn, isFn := e.Bind.(*lambda.Fn); isFn && isJoin(e.Body, e.LV) {
			return c.joinLet(e, fn, tail)
		}
		bindc := c.walk(e.Bind)
		slot := c.alloc()
		old, had := c.bind(e.LV, slot)
		bodyc := c.exp(e.Body, tail)
		c.unbind(e.LV, old, had)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			fr.slots[slot] = bindc(m, fr)
			return bodyc(m, fr)
		}
	case *lambda.Con:
		if e.Arg == nil {
			if c.shape {
				return nil
			}
			// Nullary constructors are immutable and compared
			// structurally, so one shared value is observationally
			// identical to a fresh one per evaluation.
			v := &ConV{Tag: e.Tag, Name: e.Name}
			return func(*Machine, *Frame) Value { return v }
		}
		if n := tupleArity(e.Arg); n != 0 {
			return c.conCell(e, n, c.tuple(e.Arg))
		}
		tag, name := e.Tag, e.Name
		argc := c.walk(e.Arg)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			return &ConV{Tag: tag, Name: name, Arg: argc(m, fr)}
		}
	case *lambda.Decon:
		ec := c.walk(e.Exp)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			cv, ok := v.(*ConV)
			if !ok || cv.Arg == nil {
				m.crash("decon of non-constructed value %s", String(v))
			}
			return cv.Arg
		}
	case *lambda.NewExnTag:
		// Exception declarations are generative: a fresh tag identity
		// per evaluation.
		name := e.Name
		return func(*Machine, *Frame) Value { return &ExnTag{Name: name} }
	case *lambda.ExnCon:
		tagc := c.walk(e.Tag)
		var argc cnode
		if e.Arg != nil {
			argc = c.walk(e.Arg)
		}
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			tv := tagc(m, fr)
			t, ok := tv.(*ExnTag)
			if !ok {
				m.crash("exncon with non-tag %s", String(tv))
			}
			ev := &ExnV{Tag: t}
			if argc != nil {
				ev.Arg = argc(m, fr)
			}
			return ev
		}
	case *lambda.ExnDecon:
		ec := c.walk(e.Exp)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			ev, ok := v.(*ExnV)
			if !ok || ev.Arg == nil {
				m.crash("exndecon of %s", String(v))
			}
			return ev.Arg
		}
	case *lambda.If:
		condc := c.walk(e.Cond)
		thenc := c.exp(e.Then, tail)
		elsec := c.exp(e.Else, tail)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			if Truth(condc(m, fr)) {
				return thenc(m, fr)
			}
			return elsec(m, fr)
		}
	case *lambda.Switch:
		return c.switchNode(e, tail)
	case *lambda.Prim:
		return c.prim(e)
	case *lambda.Builtin:
		name := e.Name
		return func(m *Machine, fr *Frame) Value {
			v, ok := m.builtins[name]
			if !ok {
				m.crash("unknown builtin %q", name)
			}
			return v
		}
	case *lambda.Raise:
		ec := c.walk(e.Exp)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			ev, ok := v.(*ExnV)
			if !ok {
				m.crash("raise of non-exception %s", String(v))
			}
			panic(&MLRaise{Packet: ev})
		}
	case *lambda.Handle:
		bodyc := c.walk(e.Body)
		slot := c.alloc()
		old, had := c.bind(e.Param, slot)
		handlerc := c.exp(e.Handler, tail)
		c.unbind(e.Param, old, had)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) (result Value) {
			caught := func() (packet *ExnV) {
				defer func() {
					if r := recover(); r != nil {
						if mr, ok := r.(*MLRaise); ok {
							packet = mr.Packet
							return
						}
						panic(r)
					}
				}()
				result = bodyc(m, fr)
				return nil
			}()
			if caught == nil {
				return result
			}
			fr.slots[slot] = caught
			return handlerc(m, fr)
		}
	}
	c.fail("unknown lambda node %T", e)
	return func(m *Machine, fr *Frame) Value {
		return m.crash("uncompilable node %T", e)
	}
}

// read compiles a read of lv. A read of slot 0, a frame's parameter,
// marks that frame as keeping its parameter (CompiledFn.borrows) unless
// selected says the read is the record of a Select and it runs in the
// parameter's own activation, at depth delta 0.
func (c *comp) read(lv lambda.LVar, selected bool) cnode {
	delta, slot := c.coord(lv)
	if slot == 0 && (delta != 0 || !selected) {
		c.frames[len(c.frames)-1-delta].keeps = true
	}
	if c.shape {
		return nil
	}
	if delta <= 1 && slot < sharedSlots {
		return slotReaders[delta][slot]
	}
	switch delta {
	case 0:
		return func(m *Machine, fr *Frame) Value { return fr.slots[slot] }
	case 1:
		return func(m *Machine, fr *Frame) Value { return fr.up.slots[slot] }
	default:
		return func(m *Machine, fr *Frame) Value {
			f := fr
			for i := 0; i < delta; i++ {
				f = f.up
			}
			return f.slots[slot]
		}
	}
}

// slotFn is one function of a Fix and the frame slot its closure is
// written to.
type slotFn struct {
	fn   *CompiledFn
	slot int
}

// scopeSave is what unbind needs to restore one binder of a group.
type scopeSave struct {
	lv  lambda.LVar
	old loc
	had bool
}

// saves returns room to record n binders' outer scope, or nil in decode
// mode, which has no scope to restore.
func (c *comp) saves(n int) []scopeSave {
	if !c.resolve || n == 0 {
		return nil
	}
	return make([]scopeSave, n)
}

// bindSaving binds lv at slot, recording the outer scope in saves[i]
// (a no-op in decode mode, where saves is nil).
func (c *comp) bindSaving(saves []scopeSave, i int, lv lambda.LVar, slot int) {
	if saves != nil {
		old, had := c.bind(lv, slot)
		saves[i] = scopeSave{lv: lv, old: old, had: had}
	}
}

// restore unbinds a group recorded by bindSaving, innermost first.
func (c *comp) restore(saves []scopeSave) {
	for i := len(saves) - 1; i >= 0; i-- {
		c.unbind(saves[i].lv, saves[i].old, saves[i].had)
	}
}

// isJoin reports whether a Let binding lv to a function, with body
// body, is a join point (joinLet): every occurrence of lv is the
// function of a direct call App(Var lv, arg) in the binding's own frame
// — not under a nested Fn or Fix function, and not itself applied
// again — and the body never rebinds lv. A binding nothing reads is
// one too, vacuously: lambda.Prune drops such bindings before a term is
// pickled, so only a forged bin holds one, and it builds no closure.
// isJoin is a pure function of the term shape, so every mode of the
// walk agrees, and it allocates nothing: it runs for every Let-bound
// function of every loaded unit's shape walk.
func isJoin(body lambda.Exp, lv lambda.LVar) bool {
	s := useScan{lv: lv}
	s.exp(body, false)
	return !s.other && !s.shadowed
}

// useScan is isJoin's walk state: a binder of lv cuts the search
// below it, as scoping requires, and an unknown node kind
// conservatively counts as a use other than a join call.
type useScan struct {
	lv       lambda.LVar
	other    bool // some occurrence is not a join call
	shadowed bool // the body rebinds lv
}

func (s *useScan) use(join bool) {
	s.other = s.other || !join
}

// exp scans e; nested reports whether e runs in a frame other than the
// binding's (under the body of a function).
func (s *useScan) exp(e lambda.Exp, nested bool) {
	if s.other {
		return
	}
	switch e := e.(type) {
	case *lambda.Var:
		if e.LV == s.lv {
			s.use(false)
		}
	case *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
		*lambda.Builtin, *lambda.NewExnTag:
	case *lambda.Record:
		s.exps(e.Fields, nested)
	case *lambda.Select:
		s.exp(e.Rec, nested)
	case *lambda.Fn:
		s.fn(e, true)
	case *lambda.Fix:
		for _, n := range e.Names {
			if n == s.lv {
				s.shadowed = true
				return
			}
		}
		for _, f := range e.Fns {
			s.fn(f, true)
		}
		s.exp(e.Body, nested)
	case *lambda.App:
		switch f := e.Fn.(type) {
		case *lambda.Var:
			if f.LV == s.lv {
				s.use(!nested)
			}
		case *lambda.App:
			if v, ok := f.Fn.(*lambda.Var); ok && v.LV == s.lv {
				s.use(false) // the call's result is applied again
			}
			s.exp(f, nested)
		default:
			s.exp(e.Fn, nested)
		}
		s.exp(e.Arg, nested)
	case *lambda.Let:
		s.exp(e.Bind, nested)
		if e.LV == s.lv {
			s.shadowed = true
		} else {
			s.exp(e.Body, nested)
		}
	case *lambda.Con:
		if e.Arg != nil {
			s.exp(e.Arg, nested)
		}
	case *lambda.Decon:
		s.exp(e.Exp, nested)
	case *lambda.ExnCon:
		s.exp(e.Tag, nested)
		if e.Arg != nil {
			s.exp(e.Arg, nested)
		}
	case *lambda.ExnDecon:
		s.exp(e.Exp, nested)
	case *lambda.If:
		s.exp(e.Cond, nested)
		s.exp(e.Then, nested)
		s.exp(e.Else, nested)
	case *lambda.Switch:
		s.exp(e.Scrut, nested)
		for i := range e.Cases {
			s.exp(e.Cases[i].Body, nested)
		}
		if e.Default != nil {
			s.exp(e.Default, nested)
		}
	case *lambda.Prim:
		s.exps(e.Args, nested)
	case *lambda.Raise:
		s.exp(e.Exp, nested)
	case *lambda.Handle:
		s.exp(e.Body, nested)
		if e.Param == s.lv {
			s.shadowed = true
		} else {
			s.exp(e.Handler, nested)
		}
	default:
		s.use(false)
	}
}

func (s *useScan) exps(es []lambda.Exp, nested bool) {
	for _, e := range es {
		s.exp(e, nested)
	}
}

func (s *useScan) fn(f *lambda.Fn, nested bool) {
	if f.Param == s.lv {
		s.shadowed = true
		return
	}
	s.exp(f.Body, nested)
}

// joinLet compiles a Let that binds a join point (isJoin): a function
// only ever called directly in this frame. It builds no closure and so
// marks no open frame escaping; each call runs the function on a frame
// whose parent is the current frame — the chain the closure would have
// captured. The binder's slot is still allocated, so every later slot
// and coordinate is what it would be otherwise, but it stays empty.
func (c *comp) joinLet(e *lambda.Let, bind *lambda.Fn, tail bool) cnode {
	fn := c.fn(bind)
	slot := c.alloc()
	old, had := c.bind(e.LV, slot)
	if !c.shape {
		c.joins = append(c.joins, joinFn{lv: e.LV, fn: fn})
	}
	body := c.exp(e.Body, tail)
	if !c.shape {
		c.joins = c.joins[:len(c.joins)-1]
	}
	c.unbind(e.LV, old, had)
	return body
}

// joinOf returns the function of the join point lv names, or nil.
func (c *comp) joinOf(lv lambda.LVar) *CompiledFn {
	for i := len(c.joins) - 1; i >= 0; i-- {
		if c.joins[i].lv == lv {
			return c.joins[i].fn
		}
	}
	return nil
}

// joinCall compiles a direct call of a join point. The callee's Var
// coordinate is still read (or emitted), keeping the section stream
// aligned, though the call never reads the empty slot it names. In
// tail position the join's frame takes the current frame as parent,
// which the trampoline then holds (tailCall).
func (c *comp) joinCall(lv lambda.LVar, fn *CompiledFn, arg lambda.Exp, tail bool) cnode {
	c.coord(lv)
	argc := c.walk(arg)
	if tail {
		return func(m *Machine, fr *Frame) Value {
			return m.tailCall(fn, fr, argc(m, fr), nil, 0)
		}
	}
	return func(m *Machine, fr *Frame) Value {
		return m.callFn(fn, fr, argc(m, fr))
	}
}

// chainLen counts the arguments of the application chain e heads: e's
// own and one per App in function position below it, down to a head
// that is not an App. A join call is never such an inner App (isJoin).
func chainLen(e *lambda.App) int {
	k := 1
	for in, ok := e.Fn.(*lambda.App); ok; in, ok = in.Fn.(*lambda.App) {
		k++
	}
	return k
}

// chain compiles an application chain of k > 1 arguments,
// f a1 ... ak, for applyChain. A two-argument chain, the common case,
// captures its arguments directly, so building it allocates just the
// closure; a longer one adds its argument list.
func (c *comp) chain(e *lambda.App, k int, tail bool) cnode {
	var pair [2]cnode
	var many, dst []cnode
	switch {
	case c.shape:
	case k == len(pair):
		dst = pair[:]
	default:
		many = make([]cnode, k)
		dst = many
	}
	head := c.chainArgs(e, k, dst)
	if c.shape {
		return nil
	}
	if k == len(pair) {
		a0, a1 := pair[0], pair[1]
		return func(m *Machine, fr *Frame) Value {
			return m.applyChain(head(m, fr), fr, []cnode{a0, a1}, tail)
		}
	}
	return func(m *Machine, fr *Frame) Value {
		return m.applyChain(head(m, fr), fr, many, tail)
	}
}

// chainArgs walks the chain at e as the nested Apps would be walked —
// the head, then the arguments innermost first — so the section stream
// is unchanged, storing each argument's code in args unless nil. It
// returns the head's code.
func (c *comp) chainArgs(e *lambda.App, k int, args []cnode) cnode {
	var head cnode
	if k == 1 {
		head = c.walk(e.Fn)
	} else {
		head = c.chainArgs(e.Fn.(*lambda.App), k-1, args)
	}
	argc := c.walk(e.Arg)
	if args != nil {
		args[k-1] = argc
	}
	return head
}

// tupleArity returns the field count of e when e is a 2- or 3-field
// Record, else 0.
func tupleArity(e lambda.Exp) int {
	if r, ok := e.(*lambda.Record); ok && (len(r.Fields) == 2 || len(r.Fields) == 3) {
		return len(r.Fields)
	}
	return 0
}

// filler is a compiled tuple argument: it writes the tuple's fields to
// dst.
type filler func(m *Machine, fr *Frame, dst []Value)

// tupleCall compiles f a, where a is a tuple of n fields (tupleArity).
// The function and the fields run in the order plain application runs
// them. When the callee borrows (CompiledFn.borrows), the fields go
// into a tuple lent from the machine's pool for the call; otherwise
// into a new record, as plain application builds it.
func (c *comp) tupleCall(e *lambda.App, n int, tail bool) cnode {
	fnc := c.walk(e.Fn)
	fill := c.tuple(e.Arg)
	if c.shape {
		return nil
	}
	return func(m *Machine, fr *Frame) Value {
		f := fnc(m, fr)
		cl, ok := f.(*CompiledClosure)
		if ok && cl.Fn.borrows {
			return m.lend(cl, fr, fill, n, tail)
		}
		r, vs := NewRecord(n)
		fill(m, fr, vs)
		switch {
		case !ok:
			return m.apply(f, r)
		case tail:
			return m.tailCall(cl.Fn, cl.Env, r, nil, 0)
		}
		return m.callFn(cl.Fn, cl.Env, r)
	}
}

// tuple walks a tuple argument's fields in order, as walk walks its
// Record.
func (c *comp) tuple(e lambda.Exp) filler {
	fs := e.(*lambda.Record).Fields
	a, b := c.walk(fs[0]), c.walk(fs[1])
	if len(fs) == 2 {
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame, dst []Value) {
			dst[0] = a(m, fr)
			dst[1] = b(m, fr)
		}
	}
	z := c.walk(fs[2])
	if c.shape {
		return nil
	}
	return func(m *Machine, fr *Frame, dst []Value) {
		dst[0] = a(m, fr)
		dst[1] = b(m, fr)
		dst[2] = z(m, fr)
	}
}

// conCell2 and conCell3 are a constructor and its 2- or 3-field tuple
// argument in one allocation: a list cell, SOME (a, b), N (l, v, r).
// The ConV's Arg points at the tuple inside the cell, so every reader
// sees an ordinary *ConV and an ordinary *tuple2 or *tuple3 (DESIGN.md
// §4j, "Constructor cells").
type (
	conCell2 struct {
		con    ConV
		fields tuple2
	}
	conCell3 struct {
		con    ConV
		fields tuple3
	}
)

// conCell compiles constructor e applied to the n-field tuple fill
// writes, built as one cell.
func (c *comp) conCell(e *lambda.Con, n int, fill filler) cnode {
	if c.shape {
		return nil
	}
	tag, name := e.Tag, e.Name
	if n == 2 {
		return func(m *Machine, fr *Frame) Value {
			cell := new(conCell2)
			fill(m, fr, cell.fields[:])
			cell.con = ConV{Tag: tag, Name: name, Arg: &cell.fields}
			return &cell.con
		}
	}
	return func(m *Machine, fr *Frame) Value {
		cell := new(conCell3)
		fill(m, fr, cell.fields[:])
		cell.con = ConV{Tag: tag, Name: name, Arg: &cell.fields}
		return &cell.con
	}
}

func (c *comp) switchNode(e *lambda.Switch, tail bool) cnode {
	scrut := c.walk(e.Scrut)
	var bodies []cnode
	if !c.shape {
		bodies = make([]cnode, len(e.Cases))
	}
	for i, cs := range e.Cases {
		b := c.exp(cs.Body, tail)
		if bodies != nil {
			bodies[i] = b
		}
	}
	var def cnode
	if e.Default != nil {
		def = c.exp(e.Default, tail)
	}
	if c.shape {
		return nil
	}
	miss := func(m *Machine, fr *Frame) Value {
		if def == nil {
			m.crash("non-exhaustive switch with no default")
		}
		return def(m, fr)
	}
	// The closures copy out the case keys rather than keep e.Cases,
	// whose bodies may be scratch nodes (LoadFn).
	switch kind := e.Kind; kind {
	case lambda.SwitchConTag:
		tags := caseKeys(e.Cases, func(c *lambda.Case) int { return c.Tag })
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			cv, ok := v.(*ConV)
			if !ok {
				m.crash("switch on non-constructed value %s", String(v))
			}
			for i, tag := range tags {
				if tag == cv.Tag {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchInt:
		keys := caseKeys(e.Cases, func(c *lambda.Case) int64 { return c.IntKey })
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(IntV)
			if !ok {
				m.crash("int switch on %s", String(v))
			}
			for i, k := range keys {
				if k == int64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchWord:
		keys := caseKeys(e.Cases, func(c *lambda.Case) uint64 { return c.WordKey })
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(WordV)
			if !ok {
				m.crash("word switch on %s", String(v))
			}
			for i, k := range keys {
				if k == uint64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchStr:
		keys := caseKeys(e.Cases, func(c *lambda.Case) string { return c.StrKey })
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			s, ok := v.(StrV)
			if !ok {
				m.crash("string switch on %s", String(v))
			}
			for i, k := range keys {
				if k == string(s) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchChar:
		keys := caseKeys(e.Cases, func(c *lambda.Case) string { return c.StrKey })
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			ch, ok := v.(CharV)
			if !ok {
				m.crash("char switch on %s", String(v))
			}
			for i, k := range keys {
				if len(k) == 1 && k[0] == byte(ch) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	default:
		return func(m *Machine, fr *Frame) Value {
			return m.crash("unknown switch kind %d", kind)
		}
	}
}

// caseKeys copies one key of each case.
func caseKeys[K any](cases []lambda.Case, key func(*lambda.Case) K) []K {
	out := make([]K, len(cases))
	for i := range cases {
		out[i] = key(&cases[i])
	}
	return out
}

// prim compiles a primitive application to a direct call of the op's
// table entry, resolved here, once per build or load: a call passes its
// operands with no slice and dispatches on no name. An op whose operand
// count is not its arity fails the walk, in the shape walk of a loaded
// function too, so a forged Prim is refused at load.
//
// The root of a chain of ops with int kernels takes its operands through
// intOperand, so (acc * 31 + x) mod 1000003 boxes only the result of
// its root. An op with no such operand, as in n - 1, takes the plain
// f2 call, which costs less than an operand that may be either kind.
func (c *comp) prim(e *lambda.Prim) cnode {
	p, err := primOf(e.Op, len(e.Args))
	if err != nil {
		c.fail("%v", err)
		return nil
	}
	if p.i2 != nil && (hasKernel(e.Args[0]) || hasKernel(e.Args[1])) {
		a, b := c.intOperand(e.Args[0]), c.intOperand(e.Args[1])
		if c.shape {
			return nil
		}
		p := &prims[e.Op]
		return func(m *Machine, fr *Frame) Value {
			x, av := a.run(m, fr)
			y, bv := b.run(m, fr)
			if av == nil && bv == nil {
				return boxInt(p.i2(m, x, y))
			}
			return p.f2(m, boxed(x, av), boxed(y, bv))
		}
	}
	var a, b cnode
	if len(e.Args) > 0 {
		a = c.walk(e.Args[0])
	}
	if len(e.Args) > 1 {
		b = c.walk(e.Args[1])
	}
	if c.shape {
		return nil
	}
	switch f0, f1, f2 := p.f0, p.f1, p.f2; len(e.Args) {
	case 0:
		return func(m *Machine, fr *Frame) Value { return f0(m) }
	case 1:
		return func(m *Machine, fr *Frame) Value { return f1(m, a(m, fr)) }
	default:
		return func(m *Machine, fr *Frame) Value { return f2(m, a(m, fr), b(m, fr)) }
	}
}

// inode is a compiled arithmetic primitive nested in another: it returns
// its int result unboxed, or (0, v) with v the boxed result of a word or
// real operation.
type inode func(m *Machine, fr *Frame) (int64, Value)

// operand is a compiled operand of an op with an int kernel: an inode
// when the operand is itself such an op, else a cnode.
type operand struct {
	i inode
	c cnode
}

// run evaluates the operand as an inode does.
func (o operand) run(m *Machine, fr *Frame) (int64, Value) {
	if o.i != nil {
		return o.i(m, fr)
	}
	v := o.c(m, fr)
	if n, ok := v.(IntV); ok {
		return int64(n), nil
	}
	return 0, v
}

// hasKernel reports whether e applies an op with an int kernel.
func hasKernel(e lambda.Exp) bool {
	pe, ok := e.(*lambda.Prim)
	return ok && pe.Op < lambda.NumOps && prims[pe.Op].i2 != nil
}

// boxed is an operand's value as a Value: v, or x boxed when v is nil.
func boxed(x int64, v Value) Value {
	if v != nil {
		return v
	}
	return boxInt(x)
}

// intOperand compiles e as an operand of an op with an int kernel. When
// e is an application of such an op itself, it becomes one inode, which
// runs its own operands left to right, applies the kernel when both are
// ints and falls back to f2 with boxed operands when they are not.
func (c *comp) intOperand(e lambda.Exp) operand {
	if !hasKernel(e) {
		return operand{c: c.walk(e)}
	}
	pe := e.(*lambda.Prim)
	if _, err := primOf(pe.Op, len(pe.Args)); err != nil {
		c.fail("%v", err)
		return operand{}
	}
	a, b := c.intOperand(pe.Args[0]), c.intOperand(pe.Args[1])
	if c.shape {
		return operand{}
	}
	p := &prims[pe.Op]
	return operand{i: func(m *Machine, fr *Frame) (int64, Value) {
		x, av := a.run(m, fr)
		y, bv := b.run(m, fr)
		if av == nil && bv == nil {
			return p.i2(m, x, y), nil
		}
		return 0, p.f2(m, boxed(x, av), boxed(y, bv))
	}}
}

// Fork returns a machine sharing this machine's basis identities (the
// builtin exception tags), with zeroed step count and no
// recorder — the per-goroutine evaluation context the parallel exec
// stage runs units on. Values built by a fork are interchangeable with
// the parent's: identity-bearing comparisons (exception tags) work
// because the basis tags are shared, not copied. The caller sets
// Stdout and Obs before use. The fork's frame and tuple pools start
// empty: a pool is never shared across goroutines, so only a machine
// done on the fork's own goroutine may pass it one (HandOff).
func (m *Machine) Fork() *Machine {
	f := *m
	f.Steps = 0
	f.Obs = nil
	f.pool = nil
	if m.prof != nil {
		// Profiling is inherited by enablement only: the fork gets its
		// own sample window, countdown, and shadow stack (all per-unit
		// state — resetting them per fork is what makes profiles
		// independent of which goroutine ran which unit).
		f.prof = &machProf{period: m.prof.period, left: m.prof.period}
	}
	return &f
}

// HandOff moves m's frame and tuple pools to next, so one goroutine
// running fork after fork — an exec worker, one unit after another —
// keeps its pooled frames and tuples instead of growing them anew per
// unit. m must be done evaluating, and next must run on m's goroutine.
func (m *Machine) HandOff(next *Machine) {
	next.pool, m.pool = m.pool, nil
}
