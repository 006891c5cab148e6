package pickle

import (
	"encoding/binary"

	"repro/internal/env"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/types"
)

// Object tags.
const (
	tagNil     = 0 // absent optional object
	tagInline  = 1 // full definition; registers a backref id
	tagBackref = 2 // reference to an earlier object in this stream
	tagStub    = 3 // external object, identified by stamp only
)

// Stamp encodings.
const (
	stampAlpha = 0 // provisional: ordinal among provisional stamps seen
	stampPerm  = 1 // permanent: origin pid + index
)

// Pickler dehydrates static-environment objects.
type Pickler struct {
	w writer
	// ownPid is the unit's intrinsic pid; objects stamped by other
	// origins become stubs. Zero during the canonical pass, when
	// everything permanent is external and everything provisional is
	// alpha-encoded.
	ownPid pid.Pid

	seen   map[any]uint64
	nextID uint64

	alpha map[stamps.Stamp]int64
	// provisional records, in traversal order, the objects whose stamps
	// were provisional — the order permanent stamps are assigned in.
	provisional []any
	// sites records where each provisional-stamp encoding landed in the
	// stream, so AppendPermanent can patch them without re-traversing.
	sites []stampSite
	// pidSites records where each still-unassigned export pid landed:
	// Compile derives export pids from the intrinsic pid after the
	// canonical pass, so AppendPermanent re-reads the binding's field
	// and overwrites the zero placeholder in place (same fixed width).
	pidSites []pidSite

	// rawStamps disables alpha conversion: provisional stamps are
	// written with their raw generator indices. This exists only for
	// the ablation benchmark showing that, without alpha conversion,
	// recompiling an unchanged interface changes its hash and cutoff
	// never fires (§5).
	rawStamps bool
}

// stampSite is one provisional-stamp encoding in the canonical stream:
// the half-open byte range it occupies and the alpha ordinal — which is
// also the index of the permanent stamp that replaces it (§5).
type stampSite struct {
	off, end int
	ord      int64
}

// pidSite is one zero export-pid field in the canonical stream: the
// offset of its fixed pid.Size bytes and the binding (*env.ValBind or
// *env.StrBind) whose ExportPid field holds the value to patch in.
type pidSite struct {
	off int
	obj any
}

// SetRawStamps toggles the alpha-conversion ablation (see rawStamps).
func (p *Pickler) SetRawStamps(raw bool) { p.rawStamps = raw }

// NewPickler returns a pickler accumulating into an internal buffer
// (see Bytes). ownPid selects stub behaviour (see Pickler.ownPid).
// The buffer starts at 1KB: typical unit streams are a few hundred
// bytes to a few KB, so most pickles reallocate at most twice.
func NewPickler(ownPid pid.Pid) *Pickler {
	return &Pickler{
		w:      writer{buf: make([]byte, 0, 1024)},
		ownPid: ownPid,
		seen:   map[any]uint64{},
		alpha:  map[stamps.Stamp]int64{},
	}
}

// Err returns the first write error.
func (p *Pickler) Err() error { return p.w.err }

// Bytes returns the stream written so far. The slice aliases the
// pickler's buffer: it is valid until the next write.
func (p *Pickler) Bytes() []byte { return p.w.buf }

// BytesWritten reports the stream length so far.
func (p *Pickler) BytesWritten() int { return len(p.w.buf) }

// Provisional returns the provisionally stamped objects in traversal
// order (the order in which permanent stamps must be assigned).
func (p *Pickler) Provisional() []any { return p.provisional }

// EnvPickle is the product of one canonical (alpha-converted)
// dehydration of an export environment: the byte stream that is hashed
// into the unit's intrinsic pid, plus everything needed to derive the
// bin-file form of the same environment without traversing it again.
// Immutable once built; safe to share across goroutines.
type EnvPickle struct {
	data     []byte
	sites    []stampSite
	pidSites []pidSite
	prov     []any
}

// CanonicalEnv dehydrates e exactly once, in canonical form: the
// unit's own (still provisional) stamps are alpha-converted to
// traversal ordinals, everything stamped by another unit becomes a
// stub. The returned EnvPickle serves both consumers of the stream:
// Bytes is what the intrinsic pid hashes, and AppendPermanent emits
// the bin-file encoding by patching the recorded stamp sites.
func CanonicalEnv(e *env.Env) (*EnvPickle, error) {
	p := NewPickler(pid.Zero)
	p.Env(e)
	if err := p.Err(); err != nil {
		return nil, err
	}
	return &EnvPickle{
		data:     p.w.buf,
		sites:    p.sites,
		pidSites: p.pidSites,
		prov:     p.provisional,
	}, nil
}

// Bytes returns the canonical alpha-converted stream (the hash input).
func (ep *EnvPickle) Bytes() []byte { return ep.data }

// Provisional returns the provisionally stamped objects in traversal
// order, for AssignPermanentStamps: entry i-1 gets ordinal i, so the
// slice is also the unit's ordinal table (compiler.Unit.Owned).
func (ep *EnvPickle) Provisional() []any { return ep.prov }

// AppendPermanent appends the bin-file form of the environment to dst:
// the canonical stream with every provisional-stamp site patched to
// the permanent stamp {unitPid, ordinal}. Because AssignPermanentStamps
// gives the i-th provisional object index i+1 — the same ordinal the
// alpha conversion used — the patched stream is byte-identical to a
// fresh traversal after permanent assignment (the golden invariant the
// single-pass rewrite preserves; DESIGN.md §4f).
// Both site lists are in stream order, so a two-pointer merge patches
// everything in one sweep over the canonical bytes. Stamp sites change
// the encoding length; pid sites are fixed-width overwrites whose value
// is the binding's current ExportPid — zero during the canonical pass,
// assigned by the time a bin file is encoded.
func (ep *EnvPickle) AppendPermanent(dst []byte, unitPid pid.Pid) []byte {
	prev := 0
	si, pi := 0, 0
	for si < len(ep.sites) || pi < len(ep.pidSites) {
		if pi >= len(ep.pidSites) || (si < len(ep.sites) && ep.sites[si].off < ep.pidSites[pi].off) {
			s := ep.sites[si]
			si++
			dst = append(dst, ep.data[prev:s.off]...)
			dst = append(dst, stampPerm)
			dst = append(dst, unitPid[:]...)
			dst = binary.AppendVarint(dst, s.ord)
			prev = s.end
			continue
		}
		s := ep.pidSites[pi]
		pi++
		dst = append(dst, ep.data[prev:s.off]...)
		var ex pid.Pid
		switch b := s.obj.(type) {
		case *env.ValBind:
			ex = b.ExportPid
		case *env.StrBind:
			ex = b.ExportPid
		}
		dst = append(dst, ex[:]...)
		prev = s.off + pid.Size
	}
	return append(dst, ep.data[prev:]...)
}

// PermanentSize reports the length of the stream AppendPermanent
// produces, for preallocating the destination. Each patched site
// replaces the one-byte alpha tag + ordinal varint with a one-byte
// permanent tag + 16-byte pid + the same ordinal varint.
func (ep *EnvPickle) PermanentSize(unitPid pid.Pid) int {
	n := len(ep.data)
	for _, s := range ep.sites {
		n += 1 + pid.Size + varintLen(s.ord) - (s.end - s.off)
	}
	return n
}

func varintLen(v int64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutVarint(buf[:], v)
}

// AssignPermanentStamps rewrites every provisional stamp encountered
// during pickling to a permanent stamp derived from the unit's
// intrinsic pid — the paper's post-hash replacement of provisional pids
// (§5). The ordinal assigned matches the alpha ordinal used during
// hashing, so identical interfaces yield identical permanent stamps.
func AssignPermanentStamps(objs []any, unitPid pid.Pid) {
	for i, obj := range objs {
		s := stamps.Stamp{Origin: unitPid, Index: int64(i + 1)}
		switch obj := obj.(type) {
		case *types.Tycon:
			obj.Stamp = s
		case *env.Structure:
			obj.Stamp = s
		case *env.Functor:
			obj.Stamp = s
		}
	}
}

// external reports whether a stamped object belongs to another unit.
func (p *Pickler) external(s stamps.Stamp) bool {
	if s.IsProvisional() {
		return false
	}
	return s.Origin != p.ownPid
}

// stamp writes a stamp, alpha-converting provisional ones. owner is
// recorded for later permanent assignment, and the encoding's byte
// range is recorded as a patch site for AppendPermanent.
func (p *Pickler) stamp(s stamps.Stamp, owner any) {
	if s.IsProvisional() {
		ord, ok := p.alpha[s]
		if !ok {
			ord = int64(len(p.provisional) + 1)
			p.alpha[s] = ord
			if owner != nil {
				p.provisional = append(p.provisional, owner)
			}
		}
		n := ord
		if p.rawStamps {
			n = s.Index // ablation: leak the generator counter
		}
		off := len(p.w.buf)
		p.w.byteVal(stampAlpha)
		p.w.varint(n)
		if p.w.err == nil {
			p.sites = append(p.sites, stampSite{off: off, end: len(p.w.buf), ord: ord})
		}
		return
	}
	p.w.byteVal(stampPerm)
	p.w.pid(s.Origin)
	p.w.varint(s.Index)
}

// begin handles the shared memo/stub protocol. It returns true when the
// caller must write the object body.
func (p *Pickler) begin(obj any, s stamps.Stamp, stamped bool) bool {
	if id, ok := p.seen[obj]; ok {
		p.w.byteVal(tagBackref)
		p.w.uvarint(id)
		return false
	}
	if stamped && p.external(s) {
		p.w.byteVal(tagStub)
		p.w.pid(s.Origin)
		p.w.varint(s.Index)
		return false
	}
	p.w.byteVal(tagInline)
	p.nextID++
	p.seen[obj] = p.nextID
	return true
}

// ---------------------------------------------------------------------
// Environments and bindings
// ---------------------------------------------------------------------

// Env writes one environment layer (parents are intentionally dropped:
// after compilation only local lookup is ever performed on pickled
// environments).
func (p *Pickler) Env(e *env.Env) {
	if e == nil {
		p.w.byteVal(tagNil)
		return
	}
	if !p.begin(e, stamps.Stamp{}, false) {
		return
	}
	order := e.Order()
	p.w.int(len(order))
	for _, ent := range order {
		p.w.byteVal(byte(ent.NS))
		p.w.string(ent.Name)
		switch ent.NS {
		case env.NSVal:
			vb, _ := e.LocalVal(ent.Name)
			p.ValBind(vb)
		case env.NSTycon:
			tc, _ := e.LocalTycon(ent.Name)
			p.Tycon(tc)
		case env.NSStr:
			sb, _ := e.LocalStr(ent.Name)
			p.StrBind(sb)
		case env.NSSig:
			sb, _ := e.LocalSig(ent.Name)
			p.SigBind(sb)
		case env.NSFct:
			fb, _ := e.LocalFct(ent.Name)
			p.Functor(fb.Fct)
		}
	}
}

// ValBind writes a value binding (by value: bindings have no identity).
func (p *Pickler) ValBind(vb *env.ValBind) {
	p.Scheme(vb.Scheme)
	if vb.Con != nil {
		p.w.bool(true)
		p.DataCon(vb.Con)
	} else {
		p.w.bool(false)
	}
	p.w.int(vb.Slot)
	p.exportPid(vb.ExportPid, vb)
	p.w.string(vb.Prim)
	p.w.int(len(vb.Overload))
	for _, tc := range vb.Overload {
		p.Tycon(tc)
	}
}

// StrBind writes a structure binding.
func (p *Pickler) StrBind(sb *env.StrBind) {
	p.Structure(sb.Str)
	p.w.int(sb.Slot)
	p.exportPid(sb.ExportPid, sb)
}

// exportPid writes a binding's export pid. A zero pid may still be
// assigned after the canonical pass (Compile derives export pids from
// the intrinsic pid), so its offset is recorded as a patch site.
func (p *Pickler) exportPid(ex pid.Pid, owner any) {
	if ex.IsZero() && p.w.err == nil {
		p.pidSites = append(p.pidSites, pidSite{off: len(p.w.buf), obj: owner})
	}
	p.w.pid(ex)
}

// SigBind writes a signature binding: name, definition AST, closure.
func (p *Pickler) SigBind(sb *env.SigBind) {
	p.w.string(sb.Name)
	p.SigExp(sb.Def)
	p.Env(sb.Closure)
}

// Structure writes a structure object (stub if external).
func (p *Pickler) Structure(s *env.Structure) {
	if !p.begin(s, s.Stamp, true) {
		return
	}
	p.stamp(s.Stamp, s)
	p.w.int(s.NumSlots)
	p.Env(s.Env)
}

// Functor writes a functor object (stub if external).
func (p *Pickler) Functor(f *env.Functor) {
	if !p.begin(f, f.Stamp, true) {
		return
	}
	p.stamp(f.Stamp, f)
	p.w.string(f.Name)
	p.w.string(f.ParamName)
	p.SigExp(f.ParamSig)
	if f.ResultSig != nil {
		p.w.bool(true)
		p.SigExp(f.ResultSig)
	} else {
		p.w.bool(false)
	}
	p.w.bool(f.Opaque)
	p.StrExp(f.Body)
	p.Env(f.Closure)
}

// ---------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------

// Tycon writes a type constructor (stub if external; cycles through
// constructor types are broken by the memo registration order).
func (p *Pickler) Tycon(tc *types.Tycon) {
	if !p.begin(tc, tc.Stamp, true) {
		return
	}
	p.stamp(tc.Stamp, tc)
	p.w.string(tc.Name)
	p.w.int(tc.Arity)
	p.w.byteVal(byte(tc.Kind))
	p.w.bool(tc.Eq)
	switch tc.Kind {
	case types.KindAbbrev:
		p.TyFun(tc.Abbrev)
	case types.KindData:
		p.w.int(len(tc.Cons))
		for _, dc := range tc.Cons {
			p.DataCon(dc)
		}
	}
}

// DataCon writes a data constructor by value (its identity is carried
// by its tycon).
func (p *Pickler) DataCon(dc *types.DataCon) {
	if !p.begin(dc, stamps.Stamp{}, false) {
		return
	}
	p.w.string(dc.Name)
	p.Scheme(dc.Scheme)
	p.w.bool(dc.HasArg)
	p.w.int(dc.Tag)
	p.w.int(dc.Span)
	p.w.bool(dc.IsExn)
	if dc.Tycon != nil {
		p.w.bool(true)
		p.Tycon(dc.Tycon)
	} else {
		p.w.bool(false)
	}
}

// Scheme writes a type scheme (memoized: schemes are shared by `open`
// copies and constructor bindings).
func (p *Pickler) Scheme(s *types.Scheme) {
	if !p.begin(s, stamps.Stamp{}, false) {
		return
	}
	p.w.int(s.Arity)
	p.w.int(len(s.EqFlags))
	for _, f := range s.EqFlags {
		p.w.bool(f)
	}
	p.Ty(s.Body)
}

// TyFun writes a type function.
func (p *Pickler) TyFun(f *types.TyFun) {
	if !p.begin(f, stamps.Stamp{}, false) {
		return
	}
	p.w.int(f.Arity)
	p.Ty(f.Body)
}

// Type node tags.
const (
	tyBound = iota
	tyCon
	tyRecord
	tyArrow
)

// Ty writes a type term. Unresolved unification variables must not
// survive to pickling; encountering one is an error.
func (p *Pickler) Ty(t types.Ty) {
	switch t := types.Prune(t).(type) {
	case *types.Bound:
		p.w.byteVal(tyBound)
		p.w.int(t.Index)
	case *types.Con:
		p.w.byteVal(tyCon)
		p.Tycon(t.Tycon)
		p.w.int(len(t.Args))
		for _, a := range t.Args {
			p.Ty(a)
		}
	case *types.Record:
		p.w.byteVal(tyRecord)
		p.w.int(len(t.Labels))
		for i, l := range t.Labels {
			p.w.string(l)
			p.Ty(t.Types[i])
		}
	case *types.Arrow:
		p.w.byteVal(tyArrow)
		p.Ty(t.From)
		p.Ty(t.To)
	case *types.Var:
		if len(t.Overload) > 0 {
			// Default leftover overloading during pickling, mirroring
			// the elaborator's end-of-unit defaulting.
			t.Link = &types.Con{Tycon: t.Overload[0]}
			p.Ty(t.Link)
			return
		}
		p.w.error("pickle: free type variable survived elaboration")
	default:
		p.w.error("pickle: unknown type node %T", t)
	}
}
