// Package types implements the semantic objects of the SML type system:
// types, type constructors (tycons), type schemes, and type functions,
// together with unification, generalization, and the equality used by
// signature matching.
//
// Tycons are the "significant objects" of §4: each carries a stamp that
// provides generative identity, acts as the sharing key during pickling,
// and is the lookup key when a stub is rehydrated against a context
// environment.
//
// Concurrency: type graphs under construction are confined to their
// elaborating goroutine. NewVar's ID counter is atomic, so concurrent
// elaborations are safe, and Prune never mutates the graph it walks
// (no path compression), so published — pickled and frozen — types may
// be read from any number of goroutines. Nothing writes a Con or a
// Record once built, which is what lets every elaboration share the
// unit type, the tuple label table and the basis's nullary types.
package types

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/stamps"
)

// Ty is a semantic type.
type Ty interface{ isTy() }

// Var is a unification variable. Link is non-nil once the variable has
// been instantiated. Level implements Rémy-style generalization: a
// variable may be generalized only at a let whose level is lower than
// the variable's.
type Var struct {
	Link  Ty
	ID    int64
	Level int
	// Flex, when non-nil, marks this as a flexible-record variable
	// arising from a pattern like {x, ...}: the map holds the fields
	// known so far. Unification against a record resolves it.
	Flex map[string]Ty
	// Eq requires the eventual instance to admit equality (''a).
	Eq bool
	// Overload, when non-empty, restricts the variable to the listed
	// primitive tycons (literal defaulting: int for numeric literals).
	Overload []*Tycon
}

// Bound is a de Bruijn-indexed bound variable occurring in the body of a
// Scheme or TyFun.
type Bound struct{ Index int }

// Con is a type-constructor application.
type Con struct {
	Tycon *Tycon
	Args  []Ty
}

// Record is a record type with labels in canonical order. The empty
// record is unit; tuples are records labeled "1".."n".
type Record struct {
	Labels []string
	Types  []Ty
}

// Arrow is a function type.
type Arrow struct{ From, To Ty }

func (*Var) isTy()    {}
func (*Bound) isTy()  {}
func (*Con) isTy()    {}
func (*Record) isTy() {}
func (*Arrow) isTy()  {}

// Scheme is a polymorphic type: Arity bound variables over Body.
// EqFlags records, per bound variable, whether it must admit equality.
type Scheme struct {
	Arity   int
	EqFlags []bool
	Body    Ty
}

// MonoScheme wraps a monomorphic type as a scheme.
func MonoScheme(t Ty) *Scheme { return &Scheme{Body: t} }

// TyFun is a type function λ(a1..an).body — the denotation of a type
// abbreviation and the realization of a formal tycon during signature
// matching.
type TyFun struct {
	Arity int
	Body  Ty
}

// TyconKind classifies type constructors.
type TyconKind int

// Tycon kinds.
const (
	KindPrim     TyconKind = iota // built-in: int, real, string, ...
	KindData                      // datatype
	KindAbbrev                    // type abbreviation
	KindFormal                    // flexible component of a signature
	KindAbstract                  // generated by opaque ascription
)

func (k TyconKind) String() string {
	switch k {
	case KindPrim:
		return "prim"
	case KindData:
		return "datatype"
	case KindAbbrev:
		return "abbrev"
	case KindFormal:
		return "formal"
	case KindAbstract:
		return "abstract"
	}
	return "?"
}

// Tycon is a type constructor. Data tycons own their constructor list
// (which refers back to the tycon through the constructors' types — the
// pickler handles the cycle via stamps).
type Tycon struct {
	Stamp  stamps.Stamp
	Name   string
	Arity  int
	Kind   TyconKind
	Eq     bool       // admits equality
	Abbrev *TyFun     // Kind == KindAbbrev
	Cons   []*DataCon // Kind == KindData
}

// DataCon is a data or exception constructor.
type DataCon struct {
	Name   string
	Scheme *Scheme // full type: arg -> dt, or dt for nullary
	HasArg bool
	Tag    int // index within the datatype
	Span   int // number of constructors in the datatype (for match analysis)
	Tycon  *Tycon
	IsExn  bool
}

// ---------------------------------------------------------------------
// Variable allocation and pruning
// ---------------------------------------------------------------------

// varCounter is atomic because the parallel build scheduler elaborates
// units on concurrent workers. Var IDs only need to be distinct within
// one unit's elaboration (they never survive pickling), so a global
// atomic counter is sufficient — no per-unit determinism is required.
var varCounter atomic.Int64

// NewVar allocates a fresh unification variable at the given level.
func NewVar(level int) *Var {
	return &Var{ID: varCounter.Add(1), Level: level}
}

// NewEqVar allocates a fresh equality-demanding variable.
func NewEqVar(level int) *Var {
	v := NewVar(level)
	v.Eq = true
	return v
}

// Prune follows instantiated variable links to the representative type.
func Prune(t Ty) Ty {
	for {
		v, ok := t.(*Var)
		if !ok || v.Link == nil {
			return t
		}
		t = v.Link
	}
}

// ---------------------------------------------------------------------
// Canonical record labels
// ---------------------------------------------------------------------

// LabelLess implements the Definition's label ordering: numeric labels
// first in numeric order, then alphanumeric labels lexicographically.
func LabelLess(a, b string) bool {
	an, aIsNum := labelNum(a)
	bn, bIsNum := labelNum(b)
	switch {
	case aIsNum && bIsNum:
		return an < bn
	case aIsNum:
		return true
	case bIsNum:
		return false
	default:
		return a < b
	}
}

func labelNum(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

type labelSorter struct {
	labels []string
	tys    []Ty
}

func (s labelSorter) Len() int { return len(s.labels) }
func (s labelSorter) Less(i, j int) bool {
	return LabelLess(s.labels[i], s.labels[j])
}
func (s labelSorter) Swap(i, j int) {
	s.labels[i], s.labels[j] = s.labels[j], s.labels[i]
	s.tys[i], s.tys[j] = s.tys[j], s.tys[i]
}

// NewRecord builds a record type over labels and tys, keeping both
// slices: the caller hands them over. It sorts the fields canonically
// and reports duplicate labels.
func NewRecord(labels []string, tys []Ty) (*Record, error) {
	if !strictlySorted(labels) {
		sort.Sort(labelSorter{labels, tys})
		for i := 1; i < len(labels); i++ {
			if labels[i] == labels[i-1] {
				return nil, fmt.Errorf("duplicate record label %q", labels[i])
			}
		}
	}
	return &Record{Labels: labels, Types: tys}, nil
}

// strictlySorted reports whether labels are in canonical order with no
// label repeated.
func strictlySorted(labels []string) bool {
	for i := 1; i < len(labels); i++ {
		if !LabelLess(labels[i-1], labels[i]) {
			return false
		}
	}
	return true
}

// tupleLabels is the canonical label table of tuples: "1".."n" is its
// first n entries. Record labels are never written once built, so
// every tuple type up to its width shares it.
var tupleLabels = numberLabels(32)

// TupleLabels returns the labels "1".."n" of an n-tuple. The slice may
// be shared and must not be written.
func TupleLabels(n int) []string {
	if n <= len(tupleLabels) {
		return tupleLabels[:n:n]
	}
	return numberLabels(n)
}

// numberLabels returns a new slice of the labels "1".."n".
func numberLabels(n int) []string {
	ls := make([]string, n)
	for i := range ls {
		ls[i] = strconv.Itoa(i + 1)
	}
	return ls
}

// Tuple builds the record type of a tuple.
func Tuple(tys ...Ty) *Record {
	return &Record{Labels: TupleLabels(len(tys)), Types: append([]Ty(nil), tys...)}
}

// unitTy is the one empty record type; nothing writes a type node, so
// every use shares it.
var unitTy = &Record{}

// Unit is the empty record type.
func Unit() *Record { return unitTy }

// IsTuple reports whether the record is a tuple of arity >= 2 and
// returns its component types.
func (r *Record) IsTuple() ([]Ty, bool) {
	if len(r.Labels) < 2 {
		return nil, false
	}
	for i, l := range r.Labels {
		if n, ok := labelNum(l); !ok || n != i+1 {
			return nil, false
		}
	}
	return r.Types, true
}

// ---------------------------------------------------------------------
// Abbreviation expansion
// ---------------------------------------------------------------------

// ApplyTyFun instantiates a type function at the given arguments.
func ApplyTyFun(f *TyFun, args []Ty) Ty {
	if f.Arity != len(args) {
		panic(fmt.Sprintf("types: tyfun arity %d applied to %d args", f.Arity, len(args)))
	}
	return substBound(f.Body, args)
}

// substBound replaces Bound indices with the corresponding args.
func substBound(t Ty, args []Ty) Ty {
	switch t := Prune(t).(type) {
	case *Bound:
		return args[t.Index]
	case *Var:
		return t
	case *Con:
		out := make([]Ty, len(t.Args))
		for i, a := range t.Args {
			out[i] = substBound(a, args)
		}
		return &Con{Tycon: t.Tycon, Args: out}
	case *Record:
		out := make([]Ty, len(t.Types))
		for i, a := range t.Types {
			out[i] = substBound(a, args)
		}
		return &Record{Labels: t.Labels, Types: out}
	case *Arrow:
		return &Arrow{From: substBound(t.From, args), To: substBound(t.To, args)}
	}
	panic("types: substBound: unknown type")
}

// HeadNormalize expands outermost abbreviations until the head is not an
// abbreviation application.
func HeadNormalize(t Ty) Ty {
	for {
		c, ok := Prune(t).(*Con)
		if !ok || c.Tycon.Kind != KindAbbrev {
			return Prune(t)
		}
		t = ApplyTyFun(c.Tycon.Abbrev, c.Args)
	}
}

// ---------------------------------------------------------------------
// Unification
// ---------------------------------------------------------------------

// UnifyError reports a unification failure.
type UnifyError struct {
	Msg    string
	T1, T2 Ty
}

func (e *UnifyError) Error() string {
	return fmt.Sprintf("%s: %s vs %s", e.Msg, TyString(e.T1), TyString(e.T2))
}

func unifyErr(msg string, a, b Ty) error { return &UnifyError{Msg: msg, T1: a, T2: b} }

// Unify makes t1 and t2 equal by instantiating variables, or reports why
// it cannot.
func Unify(t1, t2 Ty) error {
	t1, t2 = HeadNormalize(t1), HeadNormalize(t2)
	if t1 == t2 {
		return nil
	}
	if v1, ok := t1.(*Var); ok {
		return bindVar(v1, t2)
	}
	if v2, ok := t2.(*Var); ok {
		return bindVar(v2, t1)
	}
	switch a := t1.(type) {
	case *Con:
		b, ok := t2.(*Con)
		if !ok {
			return unifyErr("type mismatch", t1, t2)
		}
		if a.Tycon.Stamp != b.Tycon.Stamp {
			return unifyErr("type constructor mismatch", t1, t2)
		}
		if len(a.Args) != len(b.Args) {
			// Only reachable from malformed types already reported by
			// the elaborator; guard anyway.
			return unifyErr("type constructor arity mismatch", t1, t2)
		}
		for i := range a.Args {
			if err := Unify(a.Args[i], b.Args[i]); err != nil {
				return err
			}
		}
		return nil
	case *Record:
		b, ok := t2.(*Record)
		if !ok {
			return unifyErr("type mismatch", t1, t2)
		}
		if len(a.Labels) != len(b.Labels) {
			return unifyErr("record field count mismatch", t1, t2)
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				return unifyErr(fmt.Sprintf("record label mismatch (%s vs %s)", a.Labels[i], b.Labels[i]), t1, t2)
			}
			if err := Unify(a.Types[i], b.Types[i]); err != nil {
				return err
			}
		}
		return nil
	case *Arrow:
		b, ok := t2.(*Arrow)
		if !ok {
			return unifyErr("type mismatch", t1, t2)
		}
		if err := Unify(a.From, b.From); err != nil {
			return err
		}
		return Unify(a.To, b.To)
	case *Bound:
		return unifyErr("internal: bound variable escaped its scheme", t1, t2)
	}
	return unifyErr("type mismatch", t1, t2)
}

// bindVar instantiates v to t, enforcing the occurs check, level
// adjustment, flex-record constraints, equality demands, and literal
// overloading.
func bindVar(v *Var, t Ty) error {
	t = Prune(t)
	if t == Ty(v) {
		return nil
	}
	if w, ok := t.(*Var); ok {
		// Variable-variable: merge constraints into the one that stays.
		if v.Flex != nil && w.Flex != nil {
			merged, err := mergeFlex(v.Flex, w.Flex)
			if err != nil {
				return err
			}
			w.Flex = merged
		} else if v.Flex != nil {
			w.Flex = v.Flex
		}
		if v.Eq {
			w.Eq = true
		}
		if len(v.Overload) > 0 {
			if len(w.Overload) > 0 {
				inter := intersectTycons(v.Overload, w.Overload)
				if len(inter) == 0 {
					return unifyErr("incompatible literal overloading", v, w)
				}
				w.Overload = inter
			} else {
				w.Overload = v.Overload
			}
		}
		if w.Level > v.Level {
			w.Level = v.Level
		}
		v.Link = w
		return nil
	}
	if occurs(v, t) {
		return unifyErr("circular type (occurs check)", v, t)
	}
	if v.Flex != nil {
		r, ok := HeadNormalize(t).(*Record)
		if !ok {
			return unifyErr("flexible record pattern requires a record type", v, t)
		}
		have := map[string]Ty{}
		for i, l := range r.Labels {
			have[l] = r.Types[i]
		}
		for l, ft := range v.Flex {
			at, ok := have[l]
			if !ok {
				return unifyErr(fmt.Sprintf("record type lacks field %q required by flexible pattern", l), v, t)
			}
			if err := Unify(ft, at); err != nil {
				return err
			}
		}
	}
	if len(v.Overload) > 0 {
		c, ok := HeadNormalize(t).(*Con)
		if !ok || !tyconIn(c.Tycon, v.Overload) {
			return unifyErr("literal cannot have this type", v, t)
		}
	}
	if v.Eq {
		if !AdmitsEq(t) {
			return unifyErr("type does not admit equality", v, t)
		}
	}
	adjustLevel(t, v.Level)
	v.Link = t
	return nil
}

func mergeFlex(a, b map[string]Ty) (map[string]Ty, error) {
	out := map[string]Ty{}
	for l, t := range a {
		out[l] = t
	}
	for l, t := range b {
		if prev, ok := out[l]; ok {
			if err := Unify(prev, t); err != nil {
				return nil, err
			}
		} else {
			out[l] = t
		}
	}
	return out, nil
}

func intersectTycons(a, b []*Tycon) []*Tycon {
	var out []*Tycon
	for _, t := range a {
		if tyconIn(t, b) {
			out = append(out, t)
		}
	}
	return out
}

func tyconIn(t *Tycon, list []*Tycon) bool {
	for _, u := range list {
		if u.Stamp == t.Stamp {
			return true
		}
	}
	return false
}

func occurs(v *Var, t Ty) bool {
	switch t := Prune(t).(type) {
	case *Var:
		return t == v
	case *Con:
		for _, a := range t.Args {
			if occurs(v, a) {
				return true
			}
		}
	case *Record:
		for _, a := range t.Types {
			if occurs(v, a) {
				return true
			}
		}
	case *Arrow:
		return occurs(v, t.From) || occurs(v, t.To)
	}
	return false
}

// adjustLevel lowers the level of all variables in t to at most level.
func adjustLevel(t Ty, level int) {
	switch t := Prune(t).(type) {
	case *Var:
		if t.Level > level {
			t.Level = level
		}
		for _, ft := range t.Flex {
			adjustLevel(ft, level)
		}
	case *Con:
		for _, a := range t.Args {
			adjustLevel(a, level)
		}
	case *Record:
		for _, a := range t.Types {
			adjustLevel(a, level)
		}
	case *Arrow:
		adjustLevel(t.From, level)
		adjustLevel(t.To, level)
	}
}

// AdmitsEq reports whether a type admits equality: primitive eq types,
// records/tuples of eq types, datatypes whose tycon is an eq tycon, and
// ref/array of anything. Arrows never admit equality.
func AdmitsEq(t Ty) bool {
	switch t := HeadNormalize(t).(type) {
	case *Var:
		if t.Eq {
			return true
		}
		// A free variable can be constrained to equality later; treat as
		// admissible by demanding it now.
		t.Eq = true
		return true
	case *Bound:
		return true // checked at instantiation via EqFlags
	case *Con:
		// ref and array admit equality regardless of argument.
		if t.Tycon.Name == "ref" || t.Tycon.Name == "array" {
			return true
		}
		if !t.Tycon.Eq {
			return false
		}
		for _, a := range t.Args {
			if !AdmitsEq(a) {
				return false
			}
		}
		return true
	case *Record:
		for _, a := range t.Types {
			if !AdmitsEq(a) {
				return false
			}
		}
		return true
	case *Arrow:
		return false
	}
	return false
}

// ---------------------------------------------------------------------
// Generalization and instantiation
// ---------------------------------------------------------------------

// Generalize builds a scheme quantifying all variables in t whose level
// exceeds level. The traversal order fixes the de Bruijn numbering.
func Generalize(t Ty, level int) *Scheme {
	var order []*Var
	seen := map[*Var]int{}
	var walk func(Ty)
	walk = func(t Ty) {
		switch t := Prune(t).(type) {
		case *Var:
			if t.Level > level && len(t.Overload) == 0 && t.Flex == nil {
				if _, ok := seen[t]; !ok {
					seen[t] = len(order)
					order = append(order, t)
				}
			}
		case *Con:
			for _, a := range t.Args {
				walk(a)
			}
		case *Record:
			for _, a := range t.Types {
				walk(a)
			}
		case *Arrow:
			walk(t.From)
			walk(t.To)
		}
	}
	walk(t)
	if len(order) == 0 {
		return &Scheme{Body: t}
	}
	eqFlags := make([]bool, len(order))
	for i, v := range order {
		eqFlags[i] = v.Eq
	}
	body := abstract(t, seen)
	return &Scheme{Arity: len(order), EqFlags: eqFlags, Body: body}
}

// abstract replaces generalizable variables with Bound nodes. It copies
// the structure so the original type (still referenced by the inferred
// expression) is unharmed for further monomorphic use.
func abstract(t Ty, idx map[*Var]int) Ty {
	switch t := Prune(t).(type) {
	case *Var:
		if i, ok := idx[t]; ok {
			return &Bound{Index: i}
		}
		return t
	case *Con:
		out := make([]Ty, len(t.Args))
		for i, a := range t.Args {
			out[i] = abstract(a, idx)
		}
		return &Con{Tycon: t.Tycon, Args: out}
	case *Record:
		out := make([]Ty, len(t.Types))
		for i, a := range t.Types {
			out[i] = abstract(a, idx)
		}
		return &Record{Labels: t.Labels, Types: out}
	case *Arrow:
		return &Arrow{From: abstract(t.From, idx), To: abstract(t.To, idx)}
	case *Bound:
		return t
	}
	panic("types: abstract: unknown type")
}

// MakeTyFun abstracts the given variables out of body, producing the
// type function λ(vars).body. Used to build type abbreviations and the
// realizations of formal tycons.
func MakeTyFun(vars []*Var, body Ty) *TyFun {
	idx := map[*Var]int{}
	for i, v := range vars {
		idx[v] = i
	}
	return &TyFun{Arity: len(vars), Body: abstract(body, idx)}
}

// SchemeOver abstracts the given variables out of body into a scheme
// with the supplied equality flags (nil for all-false).
func SchemeOver(vars []*Var, body Ty, eqFlags []bool) *Scheme {
	idx := map[*Var]int{}
	for i, v := range vars {
		idx[v] = i
	}
	if eqFlags == nil {
		eqFlags = make([]bool, len(vars))
	}
	return &Scheme{Arity: len(vars), EqFlags: eqFlags, Body: abstract(body, idx)}
}

// Instantiate replaces the scheme's bound variables with fresh
// unification variables at the given level.
func Instantiate(s *Scheme, level int) Ty {
	if s.Arity == 0 {
		return s.Body
	}
	args := make([]Ty, s.Arity)
	for i := range args {
		v := NewVar(level)
		if i < len(s.EqFlags) && s.EqFlags[i] {
			v.Eq = true
		}
		args[i] = v
	}
	return substBound(s.Body, args)
}

// InstantiateWith replaces the scheme's bound variables with the given
// types (used by signature matching).
func InstantiateWith(s *Scheme, args []Ty) Ty {
	if s.Arity != len(args) {
		panic("types: InstantiateWith arity mismatch")
	}
	if s.Arity == 0 {
		return s.Body
	}
	return substBound(s.Body, args)
}

// ---------------------------------------------------------------------
// Type equality (signature matching)
// ---------------------------------------------------------------------

// Equal reports whether two types are equal after abbreviation expansion
// with tycons compared by stamp. Bound variables compare by index (the
// caller aligns quantifier prefixes).
func Equal(t1, t2 Ty) bool {
	t1, t2 = HeadNormalize(t1), HeadNormalize(t2)
	if t1 == t2 {
		return true
	}
	switch a := t1.(type) {
	case *Var:
		return t1 == t2
	case *Bound:
		b, ok := t2.(*Bound)
		return ok && a.Index == b.Index
	case *Con:
		b, ok := t2.(*Con)
		if !ok || a.Tycon.Stamp != b.Tycon.Stamp {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *Record:
		b, ok := t2.(*Record)
		if !ok || len(a.Labels) != len(b.Labels) {
			return false
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] || !Equal(a.Types[i], b.Types[i]) {
				return false
			}
		}
		return true
	case *Arrow:
		b, ok := t2.(*Arrow)
		return ok && Equal(a.From, b.From) && Equal(a.To, b.To)
	}
	return false
}

// ---------------------------------------------------------------------
// Realization: substituting formal tycons
// ---------------------------------------------------------------------

// Realization maps formal tycon stamps to the type functions that
// implement them. Applying a realization to a type replaces occurrences
// of formal tycons with their realizations; this is how transparent
// signature matching propagates actual types (Figure 1 of the paper).
type Realization map[stamps.Stamp]*TyFun

// Apply rewrites t under the realization.
func (r Realization) Apply(t Ty) Ty {
	switch t := Prune(t).(type) {
	case *Var, *Bound:
		return t
	case *Con:
		args := make([]Ty, len(t.Args))
		for i, a := range t.Args {
			args[i] = r.Apply(a)
		}
		if f, ok := r[t.Tycon.Stamp]; ok {
			return r.Apply(ApplyTyFun(f, args))
		}
		// A realizable formal may hide under an abbreviation (sharing
		// constraints realize formals by turning them into abbrevs);
		// expand when the expansion would be rewritten.
		if t.Tycon.Kind == KindAbbrev && r.touches(t.Tycon.Abbrev.Body, 0) {
			return r.Apply(ApplyTyFun(t.Tycon.Abbrev, args))
		}
		return &Con{Tycon: t.Tycon, Args: args}
	case *Record:
		out := make([]Ty, len(t.Types))
		for i, a := range t.Types {
			out[i] = r.Apply(a)
		}
		return &Record{Labels: t.Labels, Types: out}
	case *Arrow:
		return &Arrow{From: r.Apply(t.From), To: r.Apply(t.To)}
	}
	panic("types: Realization.Apply: unknown type")
}

// touches reports whether applying the realization to t could change
// it (some realized stamp occurs, possibly under abbreviations).
func (r Realization) touches(t Ty, depth int) bool {
	if depth > 64 {
		return false
	}
	switch t := Prune(t).(type) {
	case *Con:
		if _, ok := r[t.Tycon.Stamp]; ok {
			return true
		}
		if t.Tycon.Kind == KindAbbrev && r.touches(t.Tycon.Abbrev.Body, depth+1) {
			return true
		}
		for _, a := range t.Args {
			if r.touches(a, depth+1) {
				return true
			}
		}
	case *Record:
		for _, a := range t.Types {
			if r.touches(a, depth+1) {
				return true
			}
		}
	case *Arrow:
		return r.touches(t.From, depth+1) || r.touches(t.To, depth+1)
	}
	return false
}

// ApplyScheme rewrites a scheme under the realization.
func (r Realization) ApplyScheme(s *Scheme) *Scheme {
	return &Scheme{Arity: s.Arity, EqFlags: s.EqFlags, Body: r.Apply(s.Body)}
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

// TyString renders a type for diagnostics, naming free variables 'a, 'b
// in order of appearance.
func TyString(t Ty) string {
	names := map[*Var]string{}
	var sb strings.Builder
	printTy(&sb, t, 0, names)
	return sb.String()
}

// SchemeString renders a scheme.
func SchemeString(s *Scheme) string {
	if s.Arity == 0 {
		return TyString(s.Body)
	}
	args := make([]Ty, s.Arity)
	vars := map[*Var]string{}
	for i := range args {
		v := NewVar(0)
		args[i] = v
		vars[v] = boundName(i, i < len(s.EqFlags) && s.EqFlags[i])
	}
	var sb strings.Builder
	printTy(&sb, substBound(s.Body, args), 0, vars)
	return sb.String()
}

func boundName(i int, eq bool) string {
	prefix := "'"
	if eq {
		prefix = "''"
	}
	if i < 26 {
		return prefix + string(rune('a'+i))
	}
	return fmt.Sprintf("%sv%d", prefix, i)
}

// printTy renders with minimal parentheses: prec 0 = top, 1 = tuple
// operand, 2 = constructor argument.
func printTy(sb *strings.Builder, t Ty, prec int, names map[*Var]string) {
	switch t := Prune(t).(type) {
	case *Var:
		name, ok := names[t]
		if !ok {
			name = boundName(len(names), t.Eq)
			names[t] = name
		}
		sb.WriteString(name)
	case *Bound:
		fmt.Fprintf(sb, "'%d", t.Index)
	case *Con:
		switch len(t.Args) {
		case 0:
		case 1:
			printTy(sb, t.Args[0], 2, names)
			sb.WriteByte(' ')
		default:
			sb.WriteByte('(')
			for i, a := range t.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				printTy(sb, a, 0, names)
			}
			sb.WriteString(") ")
		}
		sb.WriteString(t.Tycon.Name)
	case *Record:
		if len(t.Labels) == 0 {
			sb.WriteString("unit")
			return
		}
		if elems, ok := t.IsTuple(); ok {
			if prec >= 2 {
				sb.WriteByte('(')
			}
			for i, a := range elems {
				if i > 0 {
					sb.WriteString(" * ")
				}
				printTy(sb, a, 2, names)
			}
			if prec >= 2 {
				sb.WriteByte(')')
			}
			return
		}
		sb.WriteByte('{')
		for i, l := range t.Labels {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(l)
			sb.WriteString(": ")
			printTy(sb, t.Types[i], 0, names)
		}
		sb.WriteByte('}')
	case *Arrow:
		if prec >= 1 {
			sb.WriteByte('(')
		}
		printTy(sb, t.From, 1, names)
		sb.WriteString(" -> ")
		printTy(sb, t.To, 0, names)
		if prec >= 1 {
			sb.WriteByte(')')
		}
	}
}
