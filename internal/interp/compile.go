package interp

// The compiled-execution engine (ROADMAP "compile codeUnits to
// closures"): a one-pass compiler from lambda terms to trees of Go
// closures over array-indexed activation frames. Where the tree walker
// resolves every variable by an O(n) scan of the linked Env list at
// each occurrence, this backend resolves each occurrence once, at
// compile time, to a (depth delta, slot index) coordinate; at run time
// a variable reference is one or two pointer hops plus an array index.
//
// The coordinate assignment — the "slot layout" — is the only output
// of resolution, so it is what gets pickled into the bin file's code
// section (binfile V2): per Var in DFS order, the uvarint pair
// (depth delta, slot). Binder slots are recomputed from the term shape
// itself at load, so warm builds rebuild the compiled form without
// ever constructing an LVar scope map (see DESIGN.md §4j). A loaded
// unit's nested functions are validated at load but built on their
// first call ("Lazy function bodies", DESIGN.md §4j).

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lambda"
)

// Engine selects the execution backend a Machine runs unit code with.
// Both engines produce identical values, exceptions, and output (the
// FuzzExecTreeVsClosure differential target pins this); only speed
// differs.
type Engine int

const (
	// EngineClosure — the default (zero value) — executes units through
	// the compiled-closure backend.
	EngineClosure Engine = iota
	// EngineTree executes units with the original tree-walking
	// evaluator; the -exec=tree escape hatch.
	EngineTree
)

// String returns the -exec flag spelling of the engine.
func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "closure"
}

// ParseEngine maps a -exec flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "closure":
		return EngineClosure, nil
	case "tree":
		return EngineTree, nil
	}
	return 0, fmt.Errorf("unknown exec engine %q (want tree or closure)", s)
}

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

// CompiledFn is a function's code in compiled form.
type CompiledFn struct {
	// NSlots is the activation-frame width: slot 0 holds the argument,
	// the rest the body's Let/Fix/Handle binders in allocation order.
	NSlots int
	body   cnode
	// escapes reports whether an activation frame of this function can
	// outlive the call: any Fn or Fix node under the body creates a
	// closure whose captured chain includes this frame. A non-escaping
	// frame is returned to the machine's pool after the call, making
	// hot first-order applications (arithmetic recursion) allocation-
	// free. Computed from the term shape alone, so CompileFn and LoadFn
	// agree by construction.
	escapes bool

	// ID is this function's index in the one shared DFS walk of its
	// unit's term — the profiler's function identity. Because resolve
	// and decode mode share the walk, CompileFn and LoadFn assign the
	// same IDs by construction, so a profile captured from a cold
	// compile and from a warm bin load attribute identically. Neither
	// ID nor tab is serialized: the bin code section stays byte-for-
	// byte what it was without the profiler.
	ID  int32
	tab *fnTable

	// A function nested in a LoadFn unit is loaded without its body:
	// pending stays set until the first application builds body from
	// term and the section bytes [start, end), which LoadFn has already
	// validated. nested counts the functions inside this one — their
	// IDs follow this one's in DFS preorder — so that building this
	// body links to their headers and skips their bytes.
	pending    atomic.Bool
	term       *lambda.Fn
	start, end int32
	nested     int32
}

// fnTable is the per-unit side table shared by every CompiledFn of one
// compiled term: the unit name (set once, before execution, by
// SetUnit) and each function's lexically enclosing function, indexed
// by ID (-1 for the root). A LoadFn table also holds every function's
// header, by ID, and the code section the pending bodies are read
// from; mu serializes building them.
type fnTable struct {
	unit    string
	parents []int32
	fns     []*CompiledFn
	section []byte
	mu      sync.Mutex
}

// SetUnit records the owning unit's name on the whole compiled term.
// Call it before the term executes; samples taken afterwards attribute
// every function of the term to that unit.
func (f *CompiledFn) SetUnit(name string) {
	if f != nil && f.tab != nil {
		f.tab.unit = name
	}
}

// Unit returns the unit name recorded by SetUnit ("" before).
func (f *CompiledFn) Unit() string {
	if f == nil || f.tab == nil {
		return ""
	}
	return f.tab.unit
}

// NumFuncs returns how many functions the compiled term contains.
func (f *CompiledFn) NumFuncs() int {
	if f == nil || f.tab == nil {
		return 0
	}
	return len(f.tab.parents)
}

// ParentOf returns the ID of the lexically enclosing function of id,
// or -1 for the root (and for out-of-range ids).
func (f *CompiledFn) ParentOf(id int32) int32 {
	if f == nil || f.tab == nil || id < 0 || int(id) >= len(f.tab.parents) {
		return -1
	}
	return f.tab.parents[id]
}

// Small-int cache: boxing an IntV into a Value allocates, and the int
// fast paths below produce results in a narrow band overwhelmingly
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
// chain — the compiled engine's counterpart of *Closure. The two
// closure forms interoperate: Machine.apply dispatches on either, so a
// tree-built value can be applied by compiled code and vice versa.
type CompiledClosure struct {
	Fn  *CompiledFn
	Env *Frame
}

func (*CompiledClosure) isValue() {}

// CompileFn compiles a unit's code (the λ(import-vector).(exports)
// function of §3) to the closure form, returning it with the
// serialized slot layout — the bin file's code section.
func CompileFn(fn *lambda.Fn) (*CompiledFn, []byte, error) {
	c := &comp{resolve: true, scope: make(map[lambda.LVar]loc), tab: &fnTable{}}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, nil, c.err
	}
	if c.out == nil {
		c.out = []byte{}
	}
	return cf, c.out, nil
}

// LoadFn rebuilds the compiled form from the term plus a code section
// produced by CompileFn, skipping scope resolution entirely. Every
// coordinate is validated against the frames the term itself declares,
// and the section must be consumed exactly, so a corrupt or forged
// section yields an error — never a mis-indexed frame. Only the root
// body is built here: every nested function gets its header (ID,
// parent, frame width, escape flag) and is built on its first call.
func LoadFn(fn *lambda.Fn, section []byte) (*CompiledFn, error) {
	c := &comp{in: section, lazy: true, tab: &fnTable{section: section}}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(section) {
		return nil, fmt.Errorf("code section: %d trailing bytes", len(section)-c.pos)
	}
	return cf, nil
}

// IndexFns replays CompileFn's resolve walk over root, additionally
// recording which *lambda.Fn node became which compiled function. The
// returned map is the bridge the profiler uses to give tree-walker
// closures (and symbol names, which live on the term) the same
// function IDs the compiled engine assigns — same walk, same IDs, by
// construction. Fn nodes consumed by the walk's beta-reduction (the
// eta-expanded primitive redexes) never become functions in either
// engine and so are absent from the map.
func IndexFns(root *lambda.Fn) (*CompiledFn, map[*lambda.Fn]*CompiledFn, error) {
	c := &comp{
		resolve: true,
		scope:   make(map[lambda.LVar]loc),
		tab:     &fnTable{},
		fnOf:    make(map[*lambda.Fn]*CompiledFn),
	}
	cf := c.fn(root)
	if c.err != nil {
		return nil, nil, c.err
	}
	return cf, c.fnOf, nil
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
// every function, but returns before each closure is built. LoadFn
// walks nested functions that way, and forcing a pending function
// later re-walks just its body in build mode.
type comp struct {
	resolve bool
	scope   map[lambda.LVar]loc // resolve mode only
	nslots  []int               // per open frame: slots allocated so far
	escaped []bool              // per open frame: captured by some closure
	out     []byte              // resolve mode: section being built
	in      []byte              // decode mode: section being read
	pos     int
	err     error

	// Profiler identity, assigned by the same walk that assigns slots:
	// tab collects each function's parent in DFS preorder; fnids is
	// the stack of open function IDs; fnOf, when non-nil (IndexFns),
	// additionally maps term nodes to their compiled functions.
	tab   *fnTable
	fnids []int32
	fnOf  map[*lambda.Fn]*CompiledFn

	// lazy (LoadFn) defers nested functions: they are walked in shape
	// mode. forcing marks the walk of one pending body, in which each
	// nested function is linked to its header (tab.fns[next]) and its
	// bytes skipped.
	lazy    bool
	shape   bool
	forcing bool
	next    int32

	hdrs []CompiledFn // newFn's current chunk
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
		delta = len(c.nslots) - l.depth
		c.out = binary.AppendUvarint(c.out, uint64(delta))
		c.out = binary.AppendUvarint(c.out, uint64(l.slot))
		return delta, l.slot
	}
	d := c.uvarint()
	s := c.uvarint()
	if c.err != nil {
		return 0, 0
	}
	if d >= uint64(len(c.nslots)) {
		c.fail("code section: depth delta %d with %d frames open", d, len(c.nslots))
		return 0, 0
	}
	if s >= uint64(c.nslots[len(c.nslots)-1-int(d)]) {
		c.fail("code section: slot %d not yet allocated at delta %d", s, d)
		return 0, 0
	}
	return int(d), int(s)
}

// alloc claims the next slot of the innermost open frame.
func (c *comp) alloc() int {
	s := c.nslots[len(c.nslots)-1]
	c.nslots[len(c.nslots)-1] = s + 1
	return s
}

// bind enters lv at the given slot of the innermost frame, returning
// what unbind needs to restore the outer scope (shadowing-safe).
func (c *comp) bind(lv lambda.LVar, slot int) (loc, bool) {
	if !c.resolve {
		return loc{}, false
	}
	old, had := c.scope[lv]
	c.scope[lv] = loc{depth: len(c.nslots), slot: slot}
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
	id := int32(len(c.tab.parents))
	parent := int32(-1)
	if len(c.fnids) > 0 {
		parent = c.fnids[len(c.fnids)-1]
	}
	c.tab.parents = append(c.tab.parents, parent)
	f := c.newFn()
	f.ID, f.tab = id, c.tab
	deferred := c.lazy && parent >= 0
	shape := c.shape
	if c.lazy {
		c.tab.fns = append(c.tab.fns, f)
	}
	if deferred {
		c.shape = true
		f.term, f.start = e, int32(c.pos)
	}
	c.fnids = append(c.fnids, id)
	f.body, f.NSlots, f.escapes = c.frame(e)
	c.fnids = c.fnids[:len(c.fnids)-1]
	c.shape = shape
	if deferred {
		f.end = int32(c.pos)
		f.nested = int32(len(c.tab.parents)) - 1 - id
		f.pending.Store(true)
	}
	if c.fnOf != nil {
		c.fnOf[e] = f
	}
	return f
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

// frame walks a function body in a fresh frame whose slot 0 holds the
// parameter, returning the body's code (nil in shape mode), the
// frame's width, and whether the frame escapes.
func (c *comp) frame(e *lambda.Fn) (body cnode, nslots int, escapes bool) {
	c.nslots = append(c.nslots, 1)
	c.escaped = append(c.escaped, false)
	old, had := c.bind(e.Param, 0)
	body = c.walk(e.Body)
	c.unbind(e.Param, old, had)
	top := len(c.nslots) - 1
	nslots, escapes = c.nslots[top], c.escaped[top]
	c.nslots, c.escaped = c.nslots[:top], c.escaped[:top]
	return body, nslots, escapes
}

// code returns f's body, building it first if f is still pending.
func (f *CompiledFn) code(m *Machine) cnode {
	if f.pending.Load() {
		f.force(m)
	}
	return f.body
}

// force builds a pending function's body: the same walk LoadFn ran,
// now in build mode over just this function's bytes. The enclosing
// frames are given their final widths — LoadFn validated every
// coordinate against the narrower widths of the definition point, so
// the re-read cannot fail. The body is published by the release store
// of pending, which the lock-free check in code pairs with; the table
// lock makes concurrent first calls build it once.
func (f *CompiledFn) force(m *Machine) {
	t := f.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	if !f.pending.Load() {
		return
	}
	c := &comp{in: t.section[:f.end], pos: int(f.start), tab: t, forcing: true, next: f.ID + 1}
	for p := t.parents[f.ID]; p >= 0; p = t.parents[p] {
		c.nslots = append(c.nslots, t.fns[p].NSlots)
	}
	slices.Reverse(c.nslots)
	c.escaped = make([]bool, len(c.nslots))
	body, _, _ := c.frame(f.term)
	if c.err != nil || c.pos != int(f.end) {
		m.crash("building function %d of %s: %v (at byte %d of %d)", f.ID, t.unit, c.err, c.pos, f.end)
	}
	f.body = body
	f.pending.Store(false)
}

// markEscapes records that a closure is created at the current point:
// its captured chain includes every open frame.
func (c *comp) markEscapes() {
	for i := range c.escaped {
		c.escaped[i] = true
	}
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

func (c *comp) walk(e lambda.Exp) cnode {
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
		delta, slot := c.coord(e.LV)
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
			vs := make(RecordV, len(fields))
			for i, f := range fields {
				vs[i] = f(m, fr)
			}
			return vs
		}
	case *lambda.Select:
		rec := c.walk(e.Rec)
		if c.shape {
			return nil
		}
		idx := e.Idx
		return func(m *Machine, fr *Frame) Value {
			v := rec(m, fr)
			r, ok := v.(RecordV)
			if !ok || idx >= len(r) {
				m.crash("select .%d from non-record %s", idx, String(v))
			}
			return r[idx]
		}
	case *lambda.Fn:
		c.markEscapes()
		fn := c.fn(e)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			return &CompiledClosure{Fn: fn, Env: fr}
		}
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
		body := c.walk(e.Body)
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
		// Beta-reduce literal-lambda applications at compile time. The
		// elaborator eta-expands every primitive into
		// (fn p => prim(#0 p, ..., #k p)) and applies it to a tuple at
		// each use site; run naively that is a closure, a frame, and a
		// record allocation per arithmetic op. Reducing the redex here
		// turns the pattern back into a direct prim evaluation. The
		// general redex becomes a let-binding in the current frame.
		// Both reductions are pure term-shape rewrites, so CompileFn and
		// LoadFn agree and the section stream stays aligned.
		if fn, ok := e.Fn.(*lambda.Fn); ok {
			if prim, ok := fn.Body.(*lambda.Prim); ok {
				// The match compiler often wraps the argument tuple in
				// Let bindings (Let v7=... in Record[v7,...]); peel them
				// into slot binds of the current frame so the fusion
				// still sees the record literal underneath.
				nlets := 0
				core := e.Arg
				for l, isLet := core.(*lambda.Let); isLet; l, isLet = core.(*lambda.Let) {
					nlets++
					core = l.Body
				}
				if args, unary, ok := etaPrimArgs(fn.Param, prim.Args, core); ok {
					return c.peeledPrim(e.Arg, nlets, prim.Op, args, unary)
				}
			}
			argc := c.walk(e.Arg)
			slot := c.alloc()
			old, had := c.bind(fn.Param, slot)
			bodyc := c.walk(fn.Body)
			c.unbind(fn.Param, old, had)
			if c.shape {
				return nil
			}
			return func(m *Machine, fr *Frame) Value {
				fr.slots[slot] = argc(m, fr)
				return bodyc(m, fr)
			}
		}
		fnc := c.walk(e.Fn)
		argc := c.walk(e.Arg)
		if c.shape {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			return m.apply(fnc(m, fr), argc(m, fr))
		}
	case *lambda.Let:
		// A dead closure binding (the match compiler's unreached
		// raise-Match arm is the common case) would force every frame
		// under it to be marked escaping. Creating a closure is pure,
		// so dropping the binding is unobservable — and it keeps hot
		// first-order frames poolable.
		if _, isFn := e.Bind.(*lambda.Fn); isFn && !usesVar(e.Body, e.LV) {
			return c.walk(e.Body)
		}
		bindc := c.walk(e.Bind)
		slot := c.alloc()
		old, had := c.bind(e.LV, slot)
		bodyc := c.walk(e.Body)
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
		// per evaluation, exactly like the tree walker.
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
		thenc := c.walk(e.Then)
		elsec := c.walk(e.Else)
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
		return c.switchNode(e)
	case *lambda.Prim:
		return c.prim(e.Op, e.Args)
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
		handlerc := c.walk(e.Handler)
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

// etaPrimArgs recognizes the elaborator's eta-expansion shape applied
// to a matching argument and returns the prim's direct argument terms:
// params [#0 p, ..., #k p] against a k+1-field record argument (the
// fields become args), or [p] against any argument (unary prims: the
// argument itself is returned as unary, with args nil).
func etaPrimArgs(p lambda.LVar, primArgs []lambda.Exp, arg lambda.Exp) (args []lambda.Exp, unary lambda.Exp, ok bool) {
	if len(primArgs) == 1 {
		if v, ok := primArgs[0].(*lambda.Var); ok && v.LV == p {
			return nil, arg, true
		}
	}
	rec, ok := arg.(*lambda.Record)
	if !ok || len(rec.Fields) != len(primArgs) || len(primArgs) == 0 {
		return nil, nil, false
	}
	for i, a := range primArgs {
		sel, ok := a.(*lambda.Select)
		if !ok || sel.Idx != i {
			return nil, nil, false
		}
		v, ok := sel.Rec.(*lambda.Var)
		if !ok || v.LV != p {
			return nil, nil, false
		}
	}
	return rec.Fields, nil, true
}

// slotBind is one peeled Let of an eta-prim argument: the binding's
// code and the current-frame slot it is written to.
type slotBind struct {
	bind cnode
	slot int
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

// peeledPrim compiles an eta-prim redex whose argument is a chain of
// nlets Lets around the argument core: each Let becomes a slot bind of
// the current frame, then the prim runs on the core's terms directly.
// The chain is walked in place rather than collected, and the scope-
// restore records exist only in resolve mode. A chain of one or two
// Lets — a binary prim's operands, the common case — is captured
// directly, so decode mode allocates just the closure; a longer chain
// adds its bind list.
func (c *comp) peeledPrim(arg lambda.Exp, nlets int, op string, args []lambda.Exp, unary lambda.Exp) cnode {
	saves := c.saves(nlets)
	var pair [2]slotBind
	var many, dst []slotBind
	switch {
	case c.shape:
	case nlets <= len(pair):
		dst = pair[:nlets]
	default:
		many = make([]slotBind, nlets)
		dst = many
	}
	c.peelLets(arg, nlets, dst, saves)
	primc := c.etaPrim(op, args, unary)
	c.restore(saves)
	if c.shape {
		return nil
	}
	switch nlets {
	case 0:
		return primc
	case 1:
		b := pair[0]
		return func(m *Machine, fr *Frame) Value {
			fr.slots[b.slot] = b.bind(m, fr)
			return primc(m, fr)
		}
	case 2:
		b0, b1 := pair[0], pair[1]
		return func(m *Machine, fr *Frame) Value {
			fr.slots[b0.slot] = b0.bind(m, fr)
			fr.slots[b1.slot] = b1.bind(m, fr)
			return primc(m, fr)
		}
	}
	return func(m *Machine, fr *Frame) Value {
		for _, b := range many {
			fr.slots[b.slot] = b.bind(m, fr)
		}
		return primc(m, fr)
	}
}

// peelLets compiles the first n Lets of the chain at arg, binding each
// in the current frame and recording it in dst unless dst is nil (the
// shape walk; see peeledPrim).
func (c *comp) peelLets(arg lambda.Exp, n int, dst []slotBind, saves []scopeSave) {
	for i := 0; i < n; i++ {
		l := arg.(*lambda.Let)
		b := slotBind{bind: c.walk(l.Bind), slot: c.alloc()}
		c.bindSaving(saves, i, l.LV, b.slot)
		if dst != nil {
			dst[i] = b
		}
		arg = l.Body
	}
}

// etaPrim compiles the prim of a reduced eta redex on its direct
// arguments (see etaPrimArgs).
func (c *comp) etaPrim(op string, args []lambda.Exp, unary lambda.Exp) cnode {
	if unary != nil {
		one := [1]lambda.Exp{unary}
		return c.prim(op, one[:])
	}
	return c.prim(op, args)
}

// usesVar reports whether lv occurs free in e. Shadowing binders cut
// the search; an unknown node kind conservatively reports a use.
func usesVar(e lambda.Exp, lv lambda.LVar) bool {
	switch e := e.(type) {
	case *lambda.Var:
		return e.LV == lv
	case *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
		*lambda.Builtin, *lambda.NewExnTag:
		return false
	case *lambda.Record:
		for _, f := range e.Fields {
			if usesVar(f, lv) {
				return true
			}
		}
		return false
	case *lambda.Select:
		return usesVar(e.Rec, lv)
	case *lambda.Fn:
		return e.Param != lv && usesVar(e.Body, lv)
	case *lambda.Fix:
		for _, n := range e.Names {
			if n == lv {
				return false
			}
		}
		for _, f := range e.Fns {
			if f.Param != lv && usesVar(f.Body, lv) {
				return true
			}
		}
		return usesVar(e.Body, lv)
	case *lambda.App:
		return usesVar(e.Fn, lv) || usesVar(e.Arg, lv)
	case *lambda.Let:
		if usesVar(e.Bind, lv) {
			return true
		}
		return e.LV != lv && usesVar(e.Body, lv)
	case *lambda.Con:
		return e.Arg != nil && usesVar(e.Arg, lv)
	case *lambda.Decon:
		return usesVar(e.Exp, lv)
	case *lambda.ExnCon:
		return usesVar(e.Tag, lv) || (e.Arg != nil && usesVar(e.Arg, lv))
	case *lambda.ExnDecon:
		return usesVar(e.Exp, lv)
	case *lambda.If:
		return usesVar(e.Cond, lv) || usesVar(e.Then, lv) || usesVar(e.Else, lv)
	case *lambda.Switch:
		if usesVar(e.Scrut, lv) {
			return true
		}
		for _, cs := range e.Cases {
			if usesVar(cs.Body, lv) {
				return true
			}
		}
		return e.Default != nil && usesVar(e.Default, lv)
	case *lambda.Prim:
		for _, a := range e.Args {
			if usesVar(a, lv) {
				return true
			}
		}
		return false
	case *lambda.Raise:
		return usesVar(e.Exp, lv)
	case *lambda.Handle:
		if usesVar(e.Body, lv) {
			return true
		}
		return e.Param != lv && usesVar(e.Handler, lv)
	}
	return true
}

func (c *comp) switchNode(e *lambda.Switch) cnode {
	scrut := c.walk(e.Scrut)
	var bodies []cnode
	if !c.shape {
		bodies = make([]cnode, len(e.Cases))
	}
	for i, cs := range e.Cases {
		b := c.walk(cs.Body)
		if bodies != nil {
			bodies[i] = b
		}
	}
	var def cnode
	if e.Default != nil {
		def = c.walk(e.Default)
	}
	if c.shape {
		return nil
	}
	cases := e.Cases
	miss := func(m *Machine, fr *Frame) Value {
		if def == nil {
			m.crash("non-exhaustive switch with no default")
		}
		return def(m, fr)
	}
	switch e.Kind {
	case lambda.SwitchConTag:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			cv, ok := v.(*ConV)
			if !ok {
				m.crash("switch on non-constructed value %s", String(v))
			}
			for i := range cases {
				if cases[i].Tag == cv.Tag {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchInt:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(IntV)
			if !ok {
				m.crash("int switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].IntKey == int64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchWord:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(WordV)
			if !ok {
				m.crash("word switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].WordKey == uint64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchStr:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			s, ok := v.(StrV)
			if !ok {
				m.crash("string switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].StrKey == string(s) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchChar:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			ch, ok := v.(CharV)
			if !ok {
				m.crash("char switch on %s", String(v))
			}
			for i := range cases {
				if len(cases[i].StrKey) == 1 && cases[i].StrKey[0] == byte(ch) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	}
	return func(m *Machine, fr *Frame) Value {
		return m.crash("unknown switch kind %d", e.Kind)
	}
}

// prim compiles a primitive application. The int fast paths inline the
// overloaded arithmetic/comparison dispatch for the representation the
// elaborated basis produces overwhelmingly often; every fast path
// falls back to the shared Machine implementation on any other
// representation, so semantics (overflow, Div, crashes) are identical.
func (c *comp) prim(op string, es []lambda.Exp) cnode {
	if len(es) == 2 {
		a, b := c.walk(es[0]), c.walk(es[1])
		if c.shape {
			return nil
		}
		if f := binaryPrim(op, a, b); f != nil {
			return f
		}
		return func(m *Machine, fr *Frame) Value {
			return m.prim(op, []Value{a(m, fr), b(m, fr)})
		}
	}
	args := c.walkAll(es)
	if c.shape {
		return nil
	}
	return func(m *Machine, fr *Frame) Value {
		vs := make([]Value, len(args))
		for i, a := range args {
			vs[i] = a(m, fr)
		}
		return m.prim(op, vs)
	}
}

// binaryPrim returns the inlined fast path of a two-argument prim over
// its compiled operands, or nil when op has none. The operands are
// captured directly, so a fast-path prim costs one closure to build.
func binaryPrim(op string, a, b cnode) cnode {
	switch op {
	case "add":
		return func(m *Machine, fr *Frame) Value {
			va, vb := a(m, fr), b(m, fr)
			if x, ok := va.(IntV); ok {
				if y, ok := vb.(IntV); ok {
					r := int64(x) + int64(y)
					if (int64(x) > 0 && int64(y) > 0 && r < 0) ||
						(int64(x) < 0 && int64(y) < 0 && r >= 0) {
						m.raise(m.TagOverflow, nil)
					}
					return boxInt(r)
				}
			}
			return m.arith(op, va, vb)
		}
	case "sub":
		return func(m *Machine, fr *Frame) Value {
			va, vb := a(m, fr), b(m, fr)
			if x, ok := va.(IntV); ok {
				if y, ok := vb.(IntV); ok {
					r := int64(x) - int64(y)
					if (int64(x) >= 0 && int64(y) < 0 && r < 0) ||
						(int64(x) < 0 && int64(y) > 0 && r >= 0) {
						m.raise(m.TagOverflow, nil)
					}
					return boxInt(r)
				}
			}
			return m.arith(op, va, vb)
		}
	case "lt", "le", "gt", "ge":
		return func(m *Machine, fr *Frame) Value {
			va, vb := a(m, fr), b(m, fr)
			if x, ok := va.(IntV); ok {
				if y, ok := vb.(IntV); ok {
					switch op {
					case "lt":
						return Bool(x < y)
					case "le":
						return Bool(x <= y)
					case "gt":
						return Bool(x > y)
					default:
						return Bool(x >= y)
					}
				}
			}
			return m.compare(op, va, vb)
		}
	case "eq":
		return func(m *Machine, fr *Frame) Value {
			return Bool(Eq(a(m, fr), b(m, fr)))
		}
	case "ne":
		return func(m *Machine, fr *Frame) Value {
			return Bool(!Eq(a(m, fr), b(m, fr)))
		}
	}
	return nil
}

// Fork returns a machine sharing this machine's basis identities (the
// builtin exception tags) and engine, with zeroed step count and no
// recorder — the per-goroutine evaluation context the parallel exec
// stage runs units on. Values built by a fork are interchangeable with
// the parent's: identity-bearing comparisons (exception tags) work
// because the basis tags are shared, not copied. The caller sets
// Stdout and Obs before use.
func (m *Machine) Fork() *Machine {
	f := *m
	f.Steps = 0
	f.Obs = nil
	f.framePool = nil // never share pooled frames across goroutines
	if m.prof != nil {
		// Profiling is inherited by enablement only: the fork gets its
		// own sample window, countdown, and shadow stack (all per-unit
		// state — resetting them per fork is what makes profiles
		// independent of which goroutine ran which unit), sharing just
		// the immutable-once-registered identity registry.
		f.prof = &machProf{period: m.prof.period, left: m.prof.period, reg: m.prof.reg}
	}
	return &f
}
