// Package ast defines the abstract syntax of the Standard ML subset:
// the core language (expressions, patterns, declarations, type
// expressions) and the module language (structures, signatures,
// functors).
//
// The AST is deliberately plain data: the elaborator annotates nothing
// in place, so the same tree can be re-elaborated — which is how functor
// application propagates transparent type information (Figure 1 of the
// paper), and why functor bodies are pickled into bin files.
//
// Concurrency: AST nodes carry no synchronization. A tree is built by
// one parser goroutine and read-only thereafter, so sharing a parsed
// tree across goroutines that only read it is safe.
package ast

import (
	"strings"

	"repro/internal/token"
)

// LongID is a possibly qualified identifier: the path components of
// Structure.Sub.name. An unqualified name has a single component.
type LongID struct {
	Parts []string
	Pos   token.Pos
}

// String renders the long identifier with dots.
func (l LongID) String() string { return strings.Join(l.Parts, ".") }

// IsQualified reports whether the identifier has a structure path.
func (l LongID) IsQualified() bool { return len(l.Parts) > 1 }

// Base returns the final component.
func (l LongID) Base() string { return l.Parts[len(l.Parts)-1] }

// Qualifier returns the leading path (empty for unqualified names).
func (l LongID) Qualifier() []string { return l.Parts[:len(l.Parts)-1] }

// ---------------------------------------------------------------------
// Type expressions
// ---------------------------------------------------------------------

// Ty is a type expression node.
type Ty interface{ isTy() }

// VarTy is a type variable 'a.
type VarTy struct {
	Name string
	Pos  token.Pos
}

// ConTy is a type-constructor application: int, 'a list, (t, u) pair.
type ConTy struct {
	Args []Ty
	Con  LongID
}

// RecordTy is a record type {a: t, b: u}. Tuples t1 * t2 are sugar for
// records labeled 1..n; the parser performs the desugaring.
type RecordTy struct {
	Fields []RecordTyField
	Pos    token.Pos
}

// RecordTyField is a single labeled field of a record type.
type RecordTyField struct {
	Label string
	Ty    Ty
}

// ArrowTy is a function type t -> u.
type ArrowTy struct {
	From, To Ty
}

func (*VarTy) isTy()    {}
func (*ConTy) isTy()    {}
func (*RecordTy) isTy() {}
func (*ArrowTy) isTy()  {}

// TupleTy builds the record desugaring of a tuple type.
func TupleTy(elems []Ty, pos token.Pos) *RecordTy {
	fields := make([]RecordTyField, len(elems))
	for i, t := range elems {
		fields[i] = RecordTyField{Label: tupleLabel(i), Ty: t}
	}
	return &RecordTy{Fields: fields, Pos: pos}
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

// Pat is a pattern node.
type Pat interface{ isPat() }

// WildPat is the wildcard pattern _.
type WildPat struct{ Pos token.Pos }

// VarPat is a variable or nullary-constructor pattern; which one is
// resolved during elaboration against the constructor environment.
type VarPat struct {
	Name LongID
}

// ConstPat is a special-constant pattern (integer, string, char, word).
type ConstPat struct {
	Kind token.Kind // INT, WORD, STRING, CHAR
	Text string
	Pos  token.Pos
}

// ConPat is a constructor application pattern: SOME x, h :: t.
type ConPat struct {
	Con LongID
	Arg Pat
}

// RecordPat is a record pattern {a = p, ...}; Flexible marks a trailing
// ellipsis. Tuple patterns desugar to records labeled 1..n.
type RecordPat struct {
	Fields   []RecordPatField
	Flexible bool
	Pos      token.Pos
}

// RecordPatField is one labeled field of a record pattern.
type RecordPatField struct {
	Label string
	Pat   Pat
}

// AsPat is a layered pattern x as p.
type AsPat struct {
	Name string
	Pat  Pat
	Pos  token.Pos
}

// TypedPat is a constrained pattern p : ty.
type TypedPat struct {
	Pat Pat
	Ty  Ty
}

func (*WildPat) isPat()   {}
func (*VarPat) isPat()    {}
func (*ConstPat) isPat()  {}
func (*ConPat) isPat()    {}
func (*RecordPat) isPat() {}
func (*AsPat) isPat()     {}
func (*TypedPat) isPat()  {}

// TuplePat builds the record desugaring of a tuple pattern.
func TuplePat(elems []Pat, pos token.Pos) *RecordPat {
	fields := make([]RecordPatField, len(elems))
	for i, p := range elems {
		fields[i] = RecordPatField{Label: tupleLabel(i), Pat: p}
	}
	return &RecordPat{Fields: fields, Pos: pos}
}

// UnitPat is the pattern ().
func UnitPat(pos token.Pos) *RecordPat { return &RecordPat{Pos: pos} }

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// Exp is an expression node.
type Exp interface{ isExp() }

// ConstExp is a special constant.
type ConstExp struct {
	Kind token.Kind // INT, WORD, REAL, STRING, CHAR
	Text string
	Pos  token.Pos
}

// VarExp is a value identifier (variable or constructor), possibly
// qualified.
type VarExp struct {
	Name LongID
}

// RecordExp is a record expression {a = e, b = f}. Tuples desugar to
// records labeled 1..n; () desugars to the empty record.
type RecordExp struct {
	Fields []RecordExpField
	Pos    token.Pos
}

// RecordExpField is one labeled field of a record expression.
type RecordExpField struct {
	Label string
	Exp   Exp
}

// SelectExp is a record selector #label, applied or standalone.
type SelectExp struct {
	Label string
	Pos   token.Pos
}

// AppExp is application e1 e2 (after infix resolution).
type AppExp struct {
	Fn, Arg Exp
}

// TypedExp is a constrained expression e : ty.
type TypedExp struct {
	Exp Exp
	Ty  Ty
}

// AndalsoExp is e1 andalso e2.
type AndalsoExp struct{ L, R Exp }

// OrelseExp is e1 orelse e2.
type OrelseExp struct{ L, R Exp }

// IfExp is if e1 then e2 else e3.
type IfExp struct{ Cond, Then, Else Exp }

// WhileExp is while e1 do e2.
type WhileExp struct{ Cond, Body Exp }

// CaseExp is case e of match.
type CaseExp struct {
	Exp   Exp
	Rules []Rule
	Pos   token.Pos
}

// FnExp is fn match.
type FnExp struct {
	Rules []Rule
	Pos   token.Pos
}

// Rule is one arm of a match: pat => exp.
type Rule struct {
	Pat Pat
	Exp Exp
}

// LetExp is let decs in exp end. A sequence body (e1; e2; e3) parses as
// a SeqExp in the body position.
type LetExp struct {
	Decs []Dec
	Body Exp
	Pos  token.Pos
}

// SeqExp is a sequence (e1; e2; ...; en), value of the last.
type SeqExp struct {
	Exps []Exp
	Pos  token.Pos
}

// RaiseExp is raise e.
type RaiseExp struct {
	Exp Exp
	Pos token.Pos
}

// HandleExp is e handle match.
type HandleExp struct {
	Exp   Exp
	Rules []Rule
}

// ListExp is [e1, ..., en]; sugar kept in the AST so the elaborator can
// produce better diagnostics, desugared to :: / nil during elaboration.
type ListExp struct {
	Exps []Exp
	Pos  token.Pos
}

func (*ConstExp) isExp()   {}
func (*VarExp) isExp()     {}
func (*RecordExp) isExp()  {}
func (*SelectExp) isExp()  {}
func (*AppExp) isExp()     {}
func (*TypedExp) isExp()   {}
func (*AndalsoExp) isExp() {}
func (*OrelseExp) isExp()  {}
func (*IfExp) isExp()      {}
func (*WhileExp) isExp()   {}
func (*CaseExp) isExp()    {}
func (*FnExp) isExp()      {}
func (*LetExp) isExp()     {}
func (*SeqExp) isExp()     {}
func (*RaiseExp) isExp()   {}
func (*HandleExp) isExp()  {}
func (*ListExp) isExp()    {}

// TupleExp builds the record desugaring of a tuple expression.
func TupleExp(elems []Exp, pos token.Pos) *RecordExp {
	fields := make([]RecordExpField, len(elems))
	for i, e := range elems {
		fields[i] = RecordExpField{Label: tupleLabel(i), Exp: e}
	}
	return &RecordExp{Fields: fields, Pos: pos}
}

// infixApp holds the nodes of an infix application, so that they are
// one allocation.
type infixApp struct {
	app    AppExp
	fn     VarExp
	arg    RecordExp
	fields [2]RecordExpField
}

// InfixApp builds the desugaring of the infix application l op r: op
// applied to the pair (l, r), positioned at op.
func InfixApp(op LongID, l, r Exp) *AppExp {
	n := &infixApp{fn: VarExp{Name: op}}
	n.fields = [2]RecordExpField{{Label: tupleLabel(0), Exp: l}, {Label: tupleLabel(1), Exp: r}}
	n.arg = RecordExp{Fields: n.fields[:], Pos: op.Pos}
	n.app = AppExp{Fn: &n.fn, Arg: &n.arg}
	return &n.app
}

// UnitExp is the expression ().
func UnitExp(pos token.Pos) *RecordExp { return &RecordExp{Pos: pos} }

// tupleLabel returns the numeric label of tuple position i (0-based).
func tupleLabel(i int) string {
	// Tuples use labels "1".."n".
	return itoa(i + 1)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------
// Core declarations
// ---------------------------------------------------------------------

// Dec is a declaration node (core or module level).
type Dec interface{ isDec() }

// ValDec is val [rec] tyvars pat = exp and ....
type ValDec struct {
	TyVars []string
	Vbs    []ValBind
	Pos    token.Pos
}

// ValBind is one binding of a val declaration.
type ValBind struct {
	Rec bool
	Pat Pat
	Exp Exp
}

// FunDec is fun f clauses and g clauses ....
type FunDec struct {
	TyVars []string
	Fbs    []FunBind
	Pos    token.Pos
}

// FunBind is all the clauses for a single function name.
type FunBind struct {
	Name    string
	Clauses []FunClause
}

// FunClause is one clause: f p1 p2 ... [: ty] = exp.
type FunClause struct {
	Pats     []Pat
	ResultTy Ty // optional
	Body     Exp
}

// TypeDec is type tyvars t = ty and ....
type TypeDec struct {
	Tbs []TypeBind
	Pos token.Pos
}

// TypeBind is one type abbreviation binding.
type TypeBind struct {
	TyVars []string
	Name   string
	Ty     Ty
}

// DatatypeDec is datatype tyvars t = C of ty | ... and ... [withtype ...].
type DatatypeDec struct {
	Dbs      []DataBind
	WithType []TypeBind
	Pos      token.Pos
}

// DataBind is one datatype binding.
type DataBind struct {
	TyVars []string
	Name   string
	Cons   []ConBind
}

// ConBind is one constructor, with optional argument type.
type ConBind struct {
	Name string
	Ty   Ty // nil for nullary constructors
}

// AbstypeDec is abstype datbind [withtype typbind] with decs end: the
// datatype is concrete within the body declarations and abstract (no
// constructors, no equality) outside.
type AbstypeDec struct {
	Dbs      []DataBind
	WithType []TypeBind
	Body     []Dec
	Pos      token.Pos
}

// DatatypeReplDec is datatype t = datatype longtycon.
type DatatypeReplDec struct {
	Name string
	Old  LongID
	Pos  token.Pos
}

// ExceptionDec is exception E [of ty] and ... / exception E = longid.
type ExceptionDec struct {
	Ebs []ExnBind
	Pos token.Pos
}

// ExnBind is one exception binding; either a new exception (Ty optional)
// or a rebinding (Alias non-nil).
type ExnBind struct {
	Name  string
	Ty    Ty      // optional argument type
	Alias *LongID // exception aliasing: exception E = Other.E
}

// LocalDec is local decs in decs end.
type LocalDec struct {
	Inner, Outer []Dec
	Pos          token.Pos
}

// OpenDec is open longstrid ... .
type OpenDec struct {
	Strs []LongID
	Pos  token.Pos
}

// FixityDec is infix/infixr/nonfix declarations (consumed by the parser
// but kept in the AST so units re-parse identically).
type FixityDec struct {
	Kind  token.Kind // INFIX, INFIXR, NONFIX
	Prec  int        // 0..9, -1 for nonfix
	Names []string
	Pos   token.Pos
}

// SeqDec groups a sequence of declarations (e.g. a whole source file).
type SeqDec struct {
	Decs []Dec
}

func (*ValDec) isDec()          {}
func (*FunDec) isDec()          {}
func (*TypeDec) isDec()         {}
func (*DatatypeDec) isDec()     {}
func (*AbstypeDec) isDec()      {}
func (*DatatypeReplDec) isDec() {}
func (*ExceptionDec) isDec()    {}
func (*LocalDec) isDec()        {}
func (*OpenDec) isDec()         {}
func (*FixityDec) isDec()       {}
func (*SeqDec) isDec()          {}

// ---------------------------------------------------------------------
// Module language
// ---------------------------------------------------------------------

// StrExp is a structure expression.
type StrExp interface{ isStrExp() }

// StructStrExp is struct decs end.
type StructStrExp struct {
	Decs []Dec
	Pos  token.Pos
}

// PathStrExp is a structure path: S, A.B.
type PathStrExp struct {
	Path LongID
}

// AppStrExp is functor application F (strexp) or F (decs).
type AppStrExp struct {
	Functor string
	Arg     StrExp
	Pos     token.Pos
}

// ConstraintStrExp is strexp : sigexp (transparent) or strexp :> sigexp
// (opaque).
type ConstraintStrExp struct {
	Str    StrExp
	Sig    SigExp
	Opaque bool
}

// LetStrExp is let decs in strexp end.
type LetStrExp struct {
	Decs []Dec
	Body StrExp
	Pos  token.Pos
}

func (*StructStrExp) isStrExp()     {}
func (*PathStrExp) isStrExp()       {}
func (*AppStrExp) isStrExp()        {}
func (*ConstraintStrExp) isStrExp() {}
func (*LetStrExp) isStrExp()        {}

// SigExp is a signature expression.
type SigExp interface{ isSigExp() }

// SigSigExp is sig specs end.
type SigSigExp struct {
	Specs []Spec
	Pos   token.Pos
}

// NameSigExp is a named signature reference.
type NameSigExp struct {
	Name string
	Pos  token.Pos
}

// WhereSigExp is sigexp where type tyvars longtycon = ty.
type WhereSigExp struct {
	Sig    SigExp
	TyVars []string
	Tycon  LongID
	Ty     Ty
}

func (*SigSigExp) isSigExp()   {}
func (*NameSigExp) isSigExp()  {}
func (*WhereSigExp) isSigExp() {}

// Spec is a signature specification item.
type Spec interface{ isSpec() }

// ValSpec is val x : ty and ....
type ValSpec struct {
	Name string
	Ty   Ty
	Pos  token.Pos
}

// TypeSpec is type tyvars t [= ty]; Eq marks eqtype. A non-nil Def makes
// it a transparent type abbreviation spec.
type TypeSpec struct {
	TyVars []string
	Name   string
	Def    Ty // nil for opaque specs
	Eq     bool
	Pos    token.Pos
}

// DatatypeSpec specifies a datatype inside a signature.
type DatatypeSpec struct {
	Dbs []DataBind
	Pos token.Pos
}

// ExceptionSpec is exception E [of ty].
type ExceptionSpec struct {
	Name string
	Ty   Ty
	Pos  token.Pos
}

// StructureSpec is structure S : sigexp.
type StructureSpec struct {
	Name string
	Sig  SigExp
	Pos  token.Pos
}

// IncludeSpec is include sigexp.
type IncludeSpec struct {
	Sig SigExp
	Pos token.Pos
}

// SharingSpec is sharing type longtycon = longtycon = ....
type SharingSpec struct {
	Tycons []LongID
	Pos    token.Pos
}

func (*ValSpec) isSpec()       {}
func (*TypeSpec) isSpec()      {}
func (*DatatypeSpec) isSpec()  {}
func (*ExceptionSpec) isSpec() {}
func (*StructureSpec) isSpec() {}
func (*IncludeSpec) isSpec()   {}
func (*SharingSpec) isSpec()   {}

// StructureDec is structure S [: SIG] = strexp and ....
type StructureDec struct {
	Sbs []StrBind
	Pos token.Pos
}

// StrBind is one structure binding.
type StrBind struct {
	Name   string
	Sig    SigExp // optional ascription
	Opaque bool
	Str    StrExp
}

// SignatureDec is signature S = sigexp and ....
type SignatureDec struct {
	Sbs []SigBind
	Pos token.Pos
}

// SigBind is one signature binding.
type SigBind struct {
	Name string
	Sig  SigExp
}

// FunctorDec is functor F (X : SIG) [: SIG'] = strexp and ....
type FunctorDec struct {
	Fbs []FunctorBind
	Pos token.Pos
}

// FunctorBind is one functor binding. If ParamName is empty the functor
// uses the "opened" parameter form functor F (specs) = ..., represented
// by a synthetic parameter opened in the body.
type FunctorBind struct {
	Name      string
	ParamName string
	ParamSig  SigExp
	ResultSig SigExp // optional ascription
	Opaque    bool
	Body      StrExp
}

func (*StructureDec) isDec() {}
func (*SignatureDec) isDec() {}
func (*FunctorDec) isDec()   {}
