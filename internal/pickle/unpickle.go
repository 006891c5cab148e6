package pickle

import (
	"repro/internal/env"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/types"
)

// Unpickler rehydrates static-environment objects, resolving stubs
// against a context Resolver.
type Unpickler struct {
	r      reader
	ctx    Resolver
	table  []any     // backref table, in registration order
	slab   *termSlab // lambda nodes; made on the first Lambda call
	origin pid.Pid   // the unit's pid, read by Header
	owned  int64     // the highest own ordinal decoded (see own)
}

// tableCapFor estimates the initial back-reference table size from the
// length of the stream still to be read when the first object
// registers. Across the example corpus one registered object costs
// roughly 12–20 stream bytes, but in a bin file that remainder is
// mostly the lambda and code segments (in the benchmark project the
// env segment is under 4% of it: about 12 objects per unit), so the
// estimate is capped at tableInitMax and append grows the table for a
// rare large environment — a few doublings instead of a table sized
// to the code.
func tableCapFor(streamLen int) int {
	return min(streamLen/12, tableInitMax)
}

const tableInitMax = 64

// NewUnpickler returns an unpickler decoding data, resolving stubs in
// ctx; a nil ctx resolves none. The cursor is zero-copy: data must not
// be mutated while the unpickler reads from it.
func NewUnpickler(data []byte, ctx Resolver) *Unpickler {
	return &Unpickler{
		r:   reader{data: data},
		ctx: ctx,
	}
}

// Err returns the first decode error.
func (u *Unpickler) Err() error { return u.r.err }

// Pos reports the cursor's byte offset into the data.
func (u *Unpickler) Pos() int { return u.r.pos }

// TableLen reports how many objects have been registered in the
// back-reference table so far (a proxy for rehydrated-graph size).
func (u *Unpickler) TableLen() int { return len(u.table) }

// Skip advances the cursor n bytes without decoding (used by cached
// reads that substitute an already-rehydrated environment for the env
// segment of a bin stream).
func (u *Unpickler) Skip(n int) {
	if u.r.err != nil {
		return
	}
	if n < 0 || len(u.r.data)-u.r.pos < n {
		u.r.error("pickle: skip past end of stream")
		return
	}
	u.r.pos += n
}

// register enters obj in the back-reference table. The table is
// allocated on the first registration, so a read that never decodes an
// environment (a header-only read, or an EnvCache hit that skips the
// env segment) never pays for it.
func (u *Unpickler) register(obj any) {
	if u.table == nil {
		u.table = make([]any, 0, tableCapFor(u.left()))
	}
	u.table = append(u.table, obj)
}

// own checks the stamp of an inline object: one of the unit's own
// origin repeats an ordinal or is the next one, so a forged ordinal can
// neither skip an entry nor size the table Owned makes.
func (u *Unpickler) own(s stamps.Stamp) {
	if s.Origin != u.origin {
		return
	}
	if s.Index == u.owned+1 {
		u.owned++
	} else if s.Index < 1 || s.Index > u.owned {
		u.r.error("pickle: own stamp %s out of sequence (next is %d)", s, u.owned+1)
	}
}

// Owned returns the unit's own stamped objects by ordinal, its table in
// an Index: entry i-1 is the first inline object decoded with stamp
// {origin, i}, origin being the pid Header read. Call it only after a
// decode without error.
func (u *Unpickler) Owned() []any {
	if u.owned == 0 {
		return nil
	}
	owned := make([]any, u.owned)
	for _, obj := range u.table {
		if s, ok := stampOf(obj); ok && s.Origin == u.origin && owned[s.Index-1] == nil {
			owned[s.Index-1] = obj
		}
	}
	return owned
}

func (u *Unpickler) backref(id uint64) any {
	if id == 0 || id > uint64(len(u.table)) {
		u.r.error("pickle: bad backreference %d", id)
		return nil
	}
	return u.table[id-1]
}

// stamp reads a stamp; alpha-encoded stamps are rejected (bin files are
// written after permanent assignment).
func (u *Unpickler) stamp() stamps.Stamp {
	switch u.r.byteVal() {
	case stampPerm:
		return u.r.stamp()
	case stampAlpha:
		u.r.error("pickle: provisional stamp in bin file")
	default:
		u.r.error("pickle: bad stamp tag")
	}
	return stamps.Stamp{}
}

// ---------------------------------------------------------------------
// Environments and bindings
// ---------------------------------------------------------------------

// Env reads one environment layer.
func (u *Unpickler) Env() *env.Env {
	switch tag := u.r.byteVal(); tag {
	case tagNil:
		return nil
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		e, ok := obj.(*env.Env)
		if !ok {
			u.r.error("pickle: backref is %T, expected env", obj)
			return env.New(nil)
		}
		return e
	case tagInline:
	default:
		u.r.error("pickle: bad env tag %d", tag)
		return env.New(nil)
	}
	e := env.New(nil)
	u.register(e)
	n := u.r.int()
	if n < 0 || n > 1<<24 {
		u.r.error("pickle: bad env size")
		return e
	}
	// An entry costs at least its namespace byte and its name's length.
	e.Grow(min(n, u.left()/2))
	for i := 0; i < n && u.r.err == nil; i++ {
		ns := env.Namespace(u.r.byteVal())
		name := u.r.string()
		switch ns {
		case env.NSVal:
			e.DefineVal(name, u.ValBind())
		case env.NSTycon:
			e.DefineTycon(name, u.Tycon())
		case env.NSStr:
			e.DefineStr(name, u.StrBind())
		case env.NSSig:
			e.DefineSig(name, u.SigBind())
		case env.NSFct:
			e.DefineFct(name, &env.FctBind{Fct: u.Functor()})
		default:
			u.r.error("pickle: bad namespace %d", ns)
		}
	}
	return e
}

// ValBind reads a value binding.
func (u *Unpickler) ValBind() *env.ValBind {
	vb := &env.ValBind{}
	vb.Scheme = u.Scheme()
	if u.r.bool() {
		vb.Con = u.DataCon()
	}
	vb.Slot = u.r.int()
	vb.ExportPid = u.r.pid()
	vb.Prim = u.r.string()
	n := u.r.int()
	for i := 0; i < n && u.r.err == nil; i++ {
		vb.Overload = append(vb.Overload, u.Tycon())
	}
	return vb
}

// StrBind reads a structure binding.
func (u *Unpickler) StrBind() *env.StrBind {
	sb := &env.StrBind{}
	sb.Str = u.Structure()
	sb.Slot = u.r.int()
	sb.ExportPid = u.r.pid()
	return sb
}

// SigBind reads a signature binding.
func (u *Unpickler) SigBind() *env.SigBind {
	sb := &env.SigBind{}
	sb.Name = u.r.string()
	sb.Def = u.SigExp()
	sb.Closure = u.Env()
	return sb
}

// Structure reads a structure object (resolving stubs in the context).
func (u *Unpickler) Structure() *env.Structure {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		s, ok := obj.(*env.Structure)
		if !ok {
			u.r.error("pickle: backref is %T, expected structure", obj)
			return &env.Structure{}
		}
		return s
	case tagStub:
		st := u.r.stamp()
		s, err := lookup[*env.Structure](u.ctx, st, "structure")
		if err != nil {
			u.r.error("%v", err)
			return &env.Structure{Stamp: st, Env: env.New(nil)}
		}
		return s
	case tagInline:
	default:
		u.r.error("pickle: bad structure tag %d", tag)
		return &env.Structure{Env: env.New(nil)}
	}
	s := &env.Structure{}
	u.register(s)
	s.Stamp = u.stamp()
	u.own(s.Stamp)
	s.NumSlots = u.r.int()
	s.Env = u.Env()
	return s
}

// Functor reads a functor object.
func (u *Unpickler) Functor() *env.Functor {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		f, ok := obj.(*env.Functor)
		if !ok {
			u.r.error("pickle: backref is %T, expected functor", obj)
			return &env.Functor{}
		}
		return f
	case tagStub:
		st := u.r.stamp()
		f, err := lookup[*env.Functor](u.ctx, st, "functor")
		if err != nil {
			u.r.error("%v", err)
			return &env.Functor{Stamp: st}
		}
		return f
	case tagInline:
	default:
		u.r.error("pickle: bad functor tag %d", tag)
		return &env.Functor{}
	}
	f := &env.Functor{}
	u.register(f)
	f.Stamp = u.stamp()
	u.own(f.Stamp)
	f.Name = u.r.string()
	f.ParamName = u.r.string()
	f.ParamSig = u.SigExp()
	if u.r.bool() {
		f.ResultSig = u.SigExp()
	}
	f.Opaque = u.r.bool()
	f.Body = u.StrExp()
	f.Closure = u.Env()
	return f
}

// ---------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------

// Tycon reads a type constructor.
func (u *Unpickler) Tycon() *types.Tycon {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		tc, ok := obj.(*types.Tycon)
		if !ok {
			u.r.error("pickle: backref is %T, expected tycon", obj)
			return &types.Tycon{}
		}
		return tc
	case tagStub:
		st := u.r.stamp()
		tc, err := lookup[*types.Tycon](u.ctx, st, "tycon")
		if err != nil {
			u.r.error("%v", err)
			return &types.Tycon{Stamp: st, Name: "?lost"}
		}
		return tc
	case tagInline:
	default:
		u.r.error("pickle: bad tycon tag %d", tag)
		return &types.Tycon{}
	}
	tc := &types.Tycon{}
	u.register(tc)
	tc.Stamp = u.stamp()
	u.own(tc.Stamp)
	tc.Name = u.r.string()
	tc.Arity = u.r.int()
	tc.Kind = types.TyconKind(u.r.byteVal())
	tc.Eq = u.r.bool()
	switch tc.Kind {
	case types.KindAbbrev:
		tc.Abbrev = u.TyFun()
	case types.KindData:
		n := u.r.int()
		for i := 0; i < n && u.r.err == nil; i++ {
			tc.Cons = append(tc.Cons, u.DataCon())
		}
	}
	return tc
}

// DataCon reads a data constructor.
func (u *Unpickler) DataCon() *types.DataCon {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		dc, ok := obj.(*types.DataCon)
		if !ok {
			u.r.error("pickle: backref is %T, expected datacon", obj)
			return &types.DataCon{}
		}
		return dc
	case tagInline:
	default:
		u.r.error("pickle: bad datacon tag %d", tag)
		return &types.DataCon{}
	}
	dc := &types.DataCon{}
	u.register(dc)
	dc.Name = u.r.string()
	dc.Scheme = u.Scheme()
	dc.HasArg = u.r.bool()
	dc.Tag = u.r.int()
	dc.Span = u.r.int()
	dc.IsExn = u.r.bool()
	if u.r.bool() {
		dc.Tycon = u.Tycon()
	}
	return dc
}

// Scheme reads a type scheme.
func (u *Unpickler) Scheme() *types.Scheme {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		s, ok := obj.(*types.Scheme)
		if !ok {
			u.r.error("pickle: backref is %T, expected scheme", obj)
			return types.MonoScheme(types.Unit())
		}
		return s
	case tagInline:
	default:
		u.r.error("pickle: bad scheme tag %d", tag)
		return types.MonoScheme(types.Unit())
	}
	s := &types.Scheme{}
	u.register(s)
	s.Arity = u.r.int()
	n := u.r.int()
	for i := 0; i < n && u.r.err == nil; i++ {
		s.EqFlags = append(s.EqFlags, u.r.bool())
	}
	s.Body = u.Ty()
	return s
}

// TyFun reads a type function.
func (u *Unpickler) TyFun() *types.TyFun {
	switch tag := u.r.byteVal(); tag {
	case tagBackref:
		obj := u.backref(u.r.uvarint())
		f, ok := obj.(*types.TyFun)
		if !ok {
			u.r.error("pickle: backref is %T, expected tyfun", obj)
			return &types.TyFun{Body: types.Unit()}
		}
		return f
	case tagInline:
	default:
		u.r.error("pickle: bad tyfun tag %d", tag)
		return &types.TyFun{Body: types.Unit()}
	}
	f := &types.TyFun{}
	u.register(f)
	f.Arity = u.r.int()
	f.Body = u.Ty()
	return f
}

// Ty reads a type term.
func (u *Unpickler) Ty() types.Ty {
	switch tag := u.r.byteVal(); tag {
	case tyBound:
		return &types.Bound{Index: u.r.int()}
	case tyCon:
		tc := u.Tycon()
		n := u.r.int()
		if n < 0 || n > 1000 {
			u.r.error("pickle: bad tycon arity")
			return types.Unit()
		}
		args := make([]types.Ty, 0, max0(n))
		for i := 0; i < n && u.r.err == nil; i++ {
			args = append(args, u.Ty())
		}
		return &types.Con{Tycon: tc, Args: args}
	case tyRecord:
		n := u.r.int()
		if n < 0 || n > 1<<20 {
			u.r.error("pickle: bad record size")
			return types.Unit()
		}
		labels := make([]string, 0, max0(n))
		tys := make([]types.Ty, 0, max0(n))
		for i := 0; i < n && u.r.err == nil; i++ {
			labels = append(labels, u.r.string())
			tys = append(tys, u.Ty())
		}
		return &types.Record{Labels: labels, Types: tys}
	case tyArrow:
		from := u.Ty()
		to := u.Ty()
		return &types.Arrow{From: from, To: to}
	default:
		u.r.error("pickle: bad type tag %d", tag)
		return types.Unit()
	}
}
