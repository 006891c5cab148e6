// Package elab implements elaboration: type checking and translation of
// the SML subset into lambda IR, organized around the paper's
// compilation-unit model (§3).
//
// ElabUnit compiles one unit against a context static environment and
// produces (a) the unit's exported static environment, (b) a closed
// lambda term from the vector of imported values to the record of
// exported values, and (c) the list of import pids in vector order.
//
// Module-language highlights:
//   - signature expressions are re-elaborated at each use from their
//     AST, so `where type` and sharing constraints can realize formal
//     tycons freely;
//   - functor bodies are kept as AST and re-elaborated at every
//     application, which propagates actual types transparently
//     (Figure 1) and creates exactly the inter-implementation
//     dependencies the paper's cutoff recompilation is designed for.
//
// Concurrency: ElabUnit may run in many goroutines at once, provided
// each call's context env is frozen (no longer mutated). Fresh type
// variables draw from an atomic counter (internal/types), so parallel
// elaborations never collide.
package elab

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/env"
	"repro/internal/lambda"
	"repro/internal/pid"
	"repro/internal/stamps"
	"repro/internal/token"
	"repro/internal/types"
)

// Error is an elaboration (type or scope) error.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// bailout aborts elaboration of the current unit after a fatal error.
type bailout struct{}

// SlotBinding records which static binding owns an export slot, so the
// compiler can assign permanent export pids after hashing (§5).
type SlotBinding struct {
	Name string // diagnostic name ("" for hidden bindings)
	Val  *env.ValBind
	Str  *env.StrBind
}

// Result is the outcome of elaborating one unit.
type Result struct {
	// Env holds the unit's new top-level bindings (the visible export
	// static environment), layered above the context.
	Env *env.Env
	// Code is λ(imports). record-of-slots: the unit's closed code.
	Code *lambda.Fn
	// ImportPids lists the dynamic pids of the import vector, in order.
	ImportPids []pid.Pid
	// Slots lists the export-slot owners in slot order.
	Slots []SlotBinding
	// Warnings are non-fatal diagnostics.
	Warnings []*Error
}

// Elaborator carries the state of one unit compilation.
type Elaborator struct {
	errs     []*Error
	warnings []*Error
	lg       *lambda.Gen
	sg       *stamps.Gen
	level    int

	// access maps binding pointers (*env.ValBind, *env.StrBind) to the
	// lambda expression that locates their runtime value within the
	// current unit.
	access map[any]lambda.Exp

	// imports assigns import-vector slots to external dynamic pids.
	importSlots map[pid.Pid]int
	importPids  []pid.Pid
	importVar   lambda.LVar

	// slots collects the export record of the unit being compiled.
	unitSlots *slotCtx

	// pendingSelects are #label selectors whose record type was not yet
	// resolved at the point of code generation; they are patched (or
	// reported) at the end of the unit.
	pendingSelects []*pendingSelect

	// tyvarScope maps explicit type variables ('a) in scope, with
	// insertion order preserved (val specs generalize in that order).
	tyvarScope []*tyscope

	// primArity maps primitive names to their runtime arity: how many
	// operands a saturated call takes (elabPrimApp) and how the
	// eta-expansion of any other use unpacks its argument (primExp).
	primArity map[string]int

	// Pattern elaboration results, keyed by AST node, consumed by the
	// code generator immediately after each rule is typed.
	patCon    map[ast.Pat]*conInfo
	patRecTy  map[*ast.RecordPat]types.Ty
	patAccess map[*env.ValBind]lambda.LVar
	patBound  map[ast.Pat]*env.ValBind

	// depth guards against runaway functor re-elaboration.
	fctDepth int
}

type pendingSelect struct {
	node  *lambda.Select
	recTy types.Ty
	label string
	pos   token.Pos
}

// slotCtx collects the runtime record of a structure or unit under
// construction: an access expression and owning binding per slot.
type slotCtx struct {
	exprs    []lambda.Exp
	bindings []SlotBinding
}

func (sc *slotCtx) add(expr lambda.Exp, b SlotBinding) int {
	sc.exprs = append(sc.exprs, expr)
	sc.bindings = append(sc.bindings, b)
	return len(sc.exprs) - 1
}

// PrimArities describes the built-in primitives' runtime arities; the
// basis package registers its primitives here via the Options.
var defaultPrimArity = map[string]int{
	"add": 2, "sub": 2, "mul": 2, "div": 2, "mod": 2, "quot": 2, "rem": 2, "fdiv": 2,
	"neg": 1, "abs": 1,
	"lt": 2, "le": 2, "gt": 2, "ge": 2, "eq": 2, "ne": 2,
	"concat": 2, "size": 1, "str": 1, "chr": 1, "ord": 1,
	"explode": 1, "implode": 1, "substring": 1,
	"real": 1, "floor": 1, "ceil": 1, "round": 1, "trunc": 1,
	"sqrt": 1, "ln": 1, "exp": 1, "sin": 1, "cos": 1, "atan": 1,
	"intToString": 1, "realToString": 1,
	"ref": 1, "deref": 1, "assign": 2, "print": 1,
	"exnName": 1,
	"andb":    2, "orb": 2, "xorb": 2, "notb": 1, "lshift": 2, "rshift": 2,
	"wordToInt": 1, "intToWord": 1,
	"array": 1, "arrayFromList": 1, "asub": 1, "aupdate": 1, "alength": 1,
	"vectorFromList": 1, "vsub": 1, "vlength": 1,
}

// conInfo records a pattern's resolved constructor; Tag carries the
// exception tag access expression for exception constructors.
type conInfo struct {
	vb  *env.ValBind
	tag lambda.Exp
}

// New returns an elaborator for one unit.
func New() *Elaborator {
	return &Elaborator{
		lg:          &lambda.Gen{},
		sg:          stamps.NewGen(),
		access:      map[any]lambda.Exp{},
		importSlots: map[pid.Pid]int{},
		primArity:   defaultPrimArity,
		patCon:      map[ast.Pat]*conInfo{},
		patRecTy:    map[*ast.RecordPat]types.Ty{},
		patAccess:   map[*env.ValBind]lambda.LVar{},
	}
}

func (el *Elaborator) errorf(pos token.Pos, format string, args ...any) {
	el.errs = append(el.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(el.errs) > 50 {
		panic(bailout{})
	}
}

// fatalf reports and aborts the unit.
func (el *Elaborator) fatalf(pos token.Pos, format string, args ...any) {
	el.errs = append(el.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	panic(bailout{})
}

func (el *Elaborator) warnf(pos token.Pos, format string, args ...any) {
	el.warnings = append(el.warnings, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// unify reports a unification failure as an elaboration error.
func (el *Elaborator) unify(pos token.Pos, t1, t2 types.Ty, what string) {
	if err := types.Unify(t1, t2); err != nil {
		el.errorf(pos, "%s: %v", what, err)
	}
}

// ElabUnit elaborates a whole compilation unit against the context
// environment and returns the compilation result.
func ElabUnit(decs []ast.Dec, context *env.Env) (res *Result, errs []*Error) {
	el := New()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			res, errs = nil, el.errs
		}
	}()

	unitEnv := env.New(context)
	el.unitSlots = &slotCtx{}
	el.importVar = el.lg.Fresh()

	wrap := el.elabDecs(decs, unitEnv, el.unitSlots)

	// Resolve deferred record selectors and default overloaded types.
	el.resolvePending()
	el.defaultExports(unitEnv)

	if len(el.errs) > 0 {
		return nil, el.errs
	}

	exports := &lambda.Record{Fields: el.unitSlots.exprs}
	code := &lambda.Fn{Param: el.importVar, Body: wrap(exports)}
	return &Result{
		Env:        unitEnv,
		Code:       code,
		ImportPids: el.importPids,
		Slots:      el.unitSlots.bindings,
		Warnings:   el.warnings,
	}, nil
}

// ---------------------------------------------------------------------
// Access resolution
// ---------------------------------------------------------------------

// accessOf returns the lambda expression locating a binding's runtime
// value: a local access registered during this compilation, or an
// import slot for bindings exported by previously compiled units.
func (el *Elaborator) accessOf(pos token.Pos, key any, exportPid pid.Pid, what string) lambda.Exp {
	if e, ok := el.access[key]; ok {
		return e
	}
	if !exportPid.IsZero() {
		slot, ok := el.importSlots[exportPid]
		if !ok {
			slot = len(el.importPids)
			el.importSlots[exportPid] = slot
			el.importPids = append(el.importPids, exportPid)
		}
		return &lambda.Select{Idx: slot, Rec: &lambda.Var{LV: el.importVar}}
	}
	el.fatalf(pos, "no runtime access for %s (internal)", what)
	return nil
}

// valAccess resolves a value binding's runtime location.
func (el *Elaborator) valAccess(pos token.Pos, vb *env.ValBind, name string) lambda.Exp {
	return el.accessOf(pos, vb, vb.ExportPid, "value "+name)
}

// strAccess resolves a structure binding's runtime record.
func (el *Elaborator) strAccess(pos token.Pos, sb *env.StrBind, name string) lambda.Exp {
	return el.accessOf(pos, sb, sb.ExportPid, "structure "+name)
}

// registerAccess records how to reach a binding's value locally.
func (el *Elaborator) registerAccess(key any, e lambda.Exp) {
	el.access[key] = e
}

// ---------------------------------------------------------------------
// Qualified lookup
// ---------------------------------------------------------------------

// lookupStrPath resolves a structure path (all components), returning
// the binding of the final structure and its access expression.
func (el *Elaborator) lookupStrPath(e *env.Env, id ast.LongID, parts []string) (*env.StrBind, lambda.Exp) {
	if len(parts) == 0 {
		el.fatalf(id.Pos, "empty structure path")
	}
	sb, ok := e.LookupStr(parts[0])
	if !ok {
		el.fatalf(id.Pos, "unbound structure %s", parts[0])
	}
	acc := el.strAccess(id.Pos, sb, parts[0])
	for _, name := range parts[1:] {
		sub, ok := sb.Str.Env.LocalStr(name)
		if !ok {
			el.fatalf(id.Pos, "structure %s has no substructure %s", sb.Str.Stamp, name)
		}
		acc = &lambda.Select{Idx: sub.Slot, Rec: acc}
		sb = sub
	}
	return sb, acc
}

// valRef locates a looked-up value binding's runtime value. Access is
// lazy so that lookups which need no runtime value (ordinary
// constructors, primitives) do not create spurious import edges, and
// valRef is a plain value so that a lookup allocates nothing.
type valRef struct {
	e  *env.Env
	id ast.LongID
	vb *env.ValBind
}

// access returns the expression that reads the binding's value.
func (r valRef) access(el *Elaborator) lambda.Exp {
	if !r.id.IsQualified() {
		return el.valAccess(r.id.Pos, r.vb, r.id.Base())
	}
	_, strAcc := el.lookupStrPath(r.e, r.id, r.id.Qualifier())
	if r.vb.Slot < 0 {
		el.fatalf(r.id.Pos, "value %s has no runtime slot (internal)", r.id)
	}
	return &lambda.Select{Idx: r.vb.Slot, Rec: strAcc}
}

// lookupVal resolves a possibly qualified value identifier to its
// binding plus a lazy reference to its runtime value.
func (el *Elaborator) lookupVal(e *env.Env, id ast.LongID) (*env.ValBind, valRef, bool) {
	var vb *env.ValBind
	var ok bool
	if !id.IsQualified() {
		vb, ok = e.LookupVal(id.Base())
	} else if sb, found := el.lookupStrBind(e, ast.LongID{Parts: id.Qualifier(), Pos: id.Pos}); found {
		vb, ok = sb.Str.Env.LocalVal(id.Base())
	}
	if !ok {
		return nil, valRef{}, false
	}
	return vb, valRef{e: e, id: id, vb: vb}, true
}

// describeUnbound produces a precise diagnostic for a failed value
// lookup: which path component is missing, and where.
func (el *Elaborator) describeUnbound(e *env.Env, id ast.LongID) string {
	if !id.IsQualified() {
		return fmt.Sprintf("unbound variable or constructor %s", id)
	}
	sb, ok := e.LookupStr(id.Parts[0])
	if !ok {
		return fmt.Sprintf("unbound structure %s (in %s)", id.Parts[0], id)
	}
	path := id.Parts[0]
	for _, part := range id.Parts[1 : len(id.Parts)-1] {
		sub, ok := sb.Str.Env.LocalStr(part)
		if !ok {
			return fmt.Sprintf("structure %s has no substructure %s (in %s)", path, part, id)
		}
		path += "." + part
		sb = sub
	}
	return fmt.Sprintf("structure %s has no value %s (in %s)", path, id.Base(), id)
}

// exnTagAccess locates an exception constructor's runtime tag: a basis
// builtin or an ordinary value access.
func (el *Elaborator) exnTagAccess(pos token.Pos, vb *env.ValBind, ref valRef) lambda.Exp {
	if len(vb.Prim) > 4 && vb.Prim[:4] == "exn:" {
		return &lambda.Builtin{Name: vb.Prim[4:]}
	}
	return ref.access(el)
}

// lookupTycon resolves a possibly qualified type constructor.
func (el *Elaborator) lookupTycon(e *env.Env, id ast.LongID) (*types.Tycon, bool) {
	if !id.IsQualified() {
		return e.LookupTycon(id.Base())
	}
	sb, ok := e.LookupStr(id.Parts[0])
	if !ok {
		return nil, false
	}
	for _, name := range id.Parts[1 : len(id.Parts)-1] {
		sub, ok := sb.Str.Env.LocalStr(name)
		if !ok {
			return nil, false
		}
		sb = sub
	}
	return sb.Str.Env.LocalTycon(id.Base())
}

// lookupStrBind resolves a possibly qualified structure identifier
// statically (without access).
func (el *Elaborator) lookupStrBind(e *env.Env, id ast.LongID) (*env.StrBind, bool) {
	sb, ok := e.LookupStr(id.Parts[0])
	if !ok {
		return nil, false
	}
	for _, name := range id.Parts[1:] {
		sub, ok := sb.Str.Env.LocalStr(name)
		if !ok {
			return nil, false
		}
		sb = sub
	}
	return sb, true
}

// ---------------------------------------------------------------------
// Type expressions
// ---------------------------------------------------------------------

// tyscope is one scope of explicit type variables, in insertion order.
// Most declarations bind none, so m is made by the first add.
type tyscope struct {
	names []string
	m     map[string]*types.Var
}

func (s *tyscope) add(name string, v *types.Var) {
	if s.m == nil {
		s.m = map[string]*types.Var{}
	}
	s.names = append(s.names, name)
	s.m[name] = v
}

// Vars returns the scope's variables in insertion order.
func (s *tyscope) Vars() []*types.Var {
	out := make([]*types.Var, len(s.names))
	for i, n := range s.names {
		out[i] = s.m[n]
	}
	return out
}

func newTyvar(name string, level int) *types.Var {
	v := types.NewVar(level)
	if len(name) >= 2 && name[1] == '\'' {
		v.Eq = true
	}
	return v
}

// pushTyvars introduces a scope of explicit type variables.
func (el *Elaborator) pushTyvars(names []string) *tyscope {
	scope := &tyscope{}
	for _, n := range names {
		scope.add(n, newTyvar(n, el.level))
	}
	el.tyvarScope = append(el.tyvarScope, scope)
	return scope
}

func (el *Elaborator) popTyvars() {
	el.tyvarScope = el.tyvarScope[:len(el.tyvarScope)-1]
}

func (el *Elaborator) lookupTyvar(name string) (*types.Var, bool) {
	for i := len(el.tyvarScope) - 1; i >= 0; i-- {
		if v, ok := el.tyvarScope[i].m[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// elabTy elaborates a type expression against the environment.
func (el *Elaborator) elabTy(e *env.Env, t ast.Ty) types.Ty {
	switch t := t.(type) {
	case *ast.VarTy:
		if v, ok := el.lookupTyvar(t.Name); ok {
			return v
		}
		// Implicitly scope at the current innermost val declaration.
		if len(el.tyvarScope) > 0 {
			v := newTyvar(t.Name, el.level)
			el.tyvarScope[len(el.tyvarScope)-1].add(t.Name, v)
			return v
		}
		el.errorf(t.Pos, "type variable %s not in scope", t.Name)
		return types.NewVar(el.level)
	case *ast.ConTy:
		tc, ok := el.lookupTycon(e, t.Con)
		if !ok {
			el.fatalf(t.Con.Pos, "unbound type constructor %s", t.Con)
		}
		if len(t.Args) != tc.Arity {
			el.errorf(t.Con.Pos, "type constructor %s expects %d argument(s), got %d",
				t.Con, tc.Arity, len(t.Args))
		}
		args := make([]types.Ty, len(t.Args))
		for i, a := range t.Args {
			args[i] = el.elabTy(e, a)
		}
		// Clamp to the declared arity so the malformed type cannot
		// corrupt later unification.
		for len(args) < tc.Arity {
			args = append(args, types.NewVar(el.level))
		}
		args = args[:tc.Arity]
		return &types.Con{Tycon: tc, Args: args}
	case *ast.RecordTy:
		labels := fieldLabels(len(t.Fields), func(i int) string { return t.Fields[i].Label })
		tys := make([]types.Ty, len(t.Fields))
		for i, f := range t.Fields {
			tys[i] = el.elabTy(e, f.Ty)
		}
		rec, err := types.NewRecord(labels, tys)
		if err != nil {
			el.errorf(t.Pos, "%v", err)
			return types.Unit()
		}
		return rec
	case *ast.ArrowTy:
		return &types.Arrow{From: el.elabTy(e, t.From), To: el.elabTy(e, t.To)}
	}
	panic("elab: unknown type expression")
}

// ---------------------------------------------------------------------
// End-of-unit resolution
// ---------------------------------------------------------------------

// resolvePending patches deferred record selections once their record
// types have been resolved by unification.
func (el *Elaborator) resolvePending() {
	for _, ps := range el.pendingSelects {
		rt := types.HeadNormalize(ps.recTy)
		rec, ok := rt.(*types.Record)
		if !ok {
			el.errorf(ps.pos, "unresolved record selector #%s (record type is %s)",
				ps.label, types.TyString(rt))
			continue
		}
		idx := -1
		for i, l := range rec.Labels {
			if l == ps.label {
				idx = i
				break
			}
		}
		if idx < 0 {
			el.errorf(ps.pos, "record type %s has no field %s", types.TyString(rt), ps.label)
			continue
		}
		ps.node.Idx = idx
	}
	el.pendingSelects = nil
}

// defaultExports walks the unit's visible bindings, defaulting any
// remaining overloaded type variables to their first admissible tycon
// (int for arithmetic) and reporting unresolved flexible records and
// free type variables in exported types.
func (el *Elaborator) defaultExports(unitEnv *env.Env) {
	var walkEnv func(e *env.Env, path string)
	walkTy := func(name string, t types.Ty) {
		el.defaultTy(t, name)
	}
	walkEnv = func(e *env.Env, path string) {
		for _, ent := range e.Order() {
			switch ent.NS {
			case env.NSVal:
				vb, _ := e.LocalVal(ent.Name)
				walkTy(path+ent.Name, vb.Scheme.Body)
			case env.NSStr:
				sb, _ := e.LocalStr(ent.Name)
				walkEnv(sb.Str.Env, path+ent.Name+".")
			}
		}
	}
	walkEnv(unitEnv, "")
}

// defaultTy resolves leftover unification variables in an exported type.
func (el *Elaborator) defaultTy(t types.Ty, name string) {
	switch t := types.Prune(t).(type) {
	case *types.Var:
		switch {
		case len(t.Overload) > 0:
			t.Link = &types.Con{Tycon: t.Overload[0]}
		case t.Flex != nil:
			el.errorf(token.Pos{}, "unresolved flexible record type in %s", name)
		default:
			el.warnf(token.Pos{}, "type of %s contains a free type variable (value restriction); "+
				"instantiating to a dummy monotype", name)
			dummy := &types.Tycon{
				Stamp: el.sg.Fresh(), Name: "?.X", Arity: 0, Kind: types.KindAbstract,
			}
			t.Link = &types.Con{Tycon: dummy}
		}
	case *types.Con:
		for _, a := range t.Args {
			el.defaultTy(a, name)
		}
	case *types.Record:
		for _, a := range t.Types {
			el.defaultTy(a, name)
		}
	case *types.Arrow:
		el.defaultTy(t.From, name)
		el.defaultTy(t.To, name)
	}
}
