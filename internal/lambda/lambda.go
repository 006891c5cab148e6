// Package lambda defines the intermediate representation a compilation
// unit's code is compiled to: a closed lambda-calculus term. Per §3 of
// the paper, the compiler "turns the unit into a single lambda-
// expression" — a function from the vector of imported values to the
// vector (record) of exported values. The interpreter in internal/interp
// gives it dynamic semantics.
//
// Concurrency: terms are immutable after construction and safe to
// share across goroutines. The one exception is a term decoded into a
// pickle.Scratch, whose nodes are reused once the scratch is released.
// Prune changes no node it is given, and concurrent calls each take
// their own state from a pool.
package lambda

import (
	"fmt"
	"strings"
)

// LVar is a lambda-bound variable, unique within one compilation.
type LVar int32

// Gen allocates lambda variables for one compilation.
type Gen struct{ next LVar }

// Fresh returns a new variable.
func (g *Gen) Fresh() LVar {
	g.next++
	return g.next
}

// Exp is a lambda-IR expression.
type Exp interface{ isExp() }

// Var references a lambda-bound variable.
type Var struct{ LV LVar }

// Int is an integer constant.
type Int struct{ Val int64 }

// Word is a word constant.
type Word struct{ Val uint64 }

// Real is a real constant.
type Real struct{ Val float64 }

// Str is a string constant.
type Str struct{ Val string }

// Char is a character constant.
type Char struct{ Val byte }

// Record builds a record/tuple value; the empty record is unit.
type Record struct{ Fields []Exp }

// Select projects field Idx from a record.
type Select struct {
	Idx int
	Rec Exp
}

// Fn is a one-argument function. Pos is where the Fn starts in the
// lambda segment it was decoded from or pickled into (internal/pickle),
// so a compiled function can find its term again without keeping the
// node; pickling sets it and writes nothing of it. It sits in the
// padding after Param, so the node does not grow.
type Fn struct {
	Param LVar
	Pos   int32
	Body  Exp
}

// Fix introduces mutually recursive functions.
type Fix struct {
	Names []LVar
	Fns   []*Fn
	Body  Exp
}

// App applies a function.
type App struct{ Fn, Arg Exp }

// Let binds a value.
type Let struct {
	LV   LVar
	Bind Exp
	Body Exp
}

// Con constructs a datatype value with the given tag. Arg is nil for
// nullary constructors.
type Con struct {
	Tag  int
	Name string
	Arg  Exp
}

// Decon extracts the argument of a constructed value.
type Decon struct{ Exp Exp }

// NewExnTag evaluates to a fresh exception tag: exception declarations
// are generative at run time.
type NewExnTag struct{ Name string }

// ExnCon constructs an exception value from a tag value and an optional
// argument.
type ExnCon struct {
	Tag Exp
	Arg Exp // nil for nullary exceptions
}

// ExnDecon extracts the argument of an exception value.
type ExnDecon struct{ Exp Exp }

// If branches on a boolean value.
type If struct{ Cond, Then, Else Exp }

// SwitchKind says what a Switch discriminates on.
type SwitchKind int

// Switch kinds.
const (
	SwitchConTag SwitchKind = iota // datatype constructor tag
	SwitchInt
	SwitchWord
	SwitchStr
	SwitchChar
)

// Case is one arm of a Switch. For SwitchConTag the key is Tag;
// otherwise the constant fields are used.
type Case struct {
	Tag     int
	IntKey  int64
	WordKey uint64
	StrKey  string
	Body    Exp
}

// Switch discriminates on a scrutinee. Default is required unless the
// cases are exhaustive over a known span.
type Switch struct {
	Kind    SwitchKind
	Scrut   Exp
	Span    int // number of constructors, for exhaustiveness (ConTag)
	Cases   []Case
	Default Exp // may be nil when exhaustive
}

// Prim applies a built-in primitive operator to Op.Arity() operands.
type Prim struct {
	Op   Op
	Args []Exp
}

// Builtin references a value supplied by the runtime basis (for
// example the tags of the built-in exceptions Match, Bind, Div).
type Builtin struct{ Name string }

// Raise raises an exception value.
type Raise struct{ Exp Exp }

// Handle evaluates Body; if it raises, binds the packet to Param and
// evaluates Handler.
type Handle struct {
	Body    Exp
	Param   LVar
	Handler Exp
}

func (*Var) isExp()       {}
func (*Int) isExp()       {}
func (*Word) isExp()      {}
func (*Real) isExp()      {}
func (*Str) isExp()       {}
func (*Char) isExp()      {}
func (*Record) isExp()    {}
func (*Select) isExp()    {}
func (*Fn) isExp()        {}
func (*Fix) isExp()       {}
func (*App) isExp()       {}
func (*Let) isExp()       {}
func (*Con) isExp()       {}
func (*Decon) isExp()     {}
func (*NewExnTag) isExp() {}
func (*ExnCon) isExp()    {}
func (*ExnDecon) isExp()  {}
func (*If) isExp()        {}
func (*Switch) isExp()    {}
func (*Prim) isExp()      {}
func (*Builtin) isExp()   {}
func (*Raise) isExp()     {}
func (*Handle) isExp()    {}

// Unit is the empty record.
func Unit() Exp { return &Record{} }

// String renders the expression for debugging; not a parseable syntax.
func String(e Exp) string {
	var sb strings.Builder
	write(&sb, e)
	return sb.String()
}

func write(sb *strings.Builder, e Exp) {
	switch e := e.(type) {
	case *Var:
		fmt.Fprintf(sb, "v%d", e.LV)
	case *Int:
		fmt.Fprintf(sb, "%d", e.Val)
	case *Word:
		fmt.Fprintf(sb, "0w%d", e.Val)
	case *Real:
		fmt.Fprintf(sb, "%g", e.Val)
	case *Str:
		fmt.Fprintf(sb, "%q", e.Val)
	case *Char:
		fmt.Fprintf(sb, "#%q", string(e.Val))
	case *Record:
		sb.WriteByte('(')
		for i, f := range e.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			write(sb, f)
		}
		sb.WriteByte(')')
	case *Select:
		write(sb, e.Rec)
		fmt.Fprintf(sb, ".%d", e.Idx)
	case *Fn:
		fmt.Fprintf(sb, "(fn v%d => ", e.Param)
		write(sb, e.Body)
		sb.WriteByte(')')
	case *Fix:
		sb.WriteString("(fix ")
		for i, n := range e.Names {
			if i > 0 {
				sb.WriteString(" and ")
			}
			fmt.Fprintf(sb, "v%d = ", n)
			write(sb, e.Fns[i])
		}
		sb.WriteString(" in ")
		write(sb, e.Body)
		sb.WriteByte(')')
	case *App:
		sb.WriteByte('(')
		write(sb, e.Fn)
		sb.WriteByte(' ')
		write(sb, e.Arg)
		sb.WriteByte(')')
	case *Let:
		fmt.Fprintf(sb, "(let v%d = ", e.LV)
		write(sb, e.Bind)
		sb.WriteString(" in ")
		write(sb, e.Body)
		sb.WriteByte(')')
	case *Con:
		fmt.Fprintf(sb, "%s#%d", e.Name, e.Tag)
		if e.Arg != nil {
			sb.WriteByte('(')
			write(sb, e.Arg)
			sb.WriteByte(')')
		}
	case *Decon:
		sb.WriteString("decon(")
		write(sb, e.Exp)
		sb.WriteByte(')')
	case *NewExnTag:
		fmt.Fprintf(sb, "newexn(%s)", e.Name)
	case *ExnCon:
		sb.WriteString("exncon(")
		write(sb, e.Tag)
		if e.Arg != nil {
			sb.WriteString(", ")
			write(sb, e.Arg)
		}
		sb.WriteByte(')')
	case *ExnDecon:
		sb.WriteString("exndecon(")
		write(sb, e.Exp)
		sb.WriteByte(')')
	case *If:
		sb.WriteString("(if ")
		write(sb, e.Cond)
		sb.WriteString(" then ")
		write(sb, e.Then)
		sb.WriteString(" else ")
		write(sb, e.Else)
		sb.WriteByte(')')
	case *Switch:
		sb.WriteString("(switch ")
		write(sb, e.Scrut)
		for _, c := range e.Cases {
			switch e.Kind {
			case SwitchConTag:
				fmt.Fprintf(sb, " | #%d => ", c.Tag)
			case SwitchInt:
				fmt.Fprintf(sb, " | %d => ", c.IntKey)
			case SwitchWord:
				fmt.Fprintf(sb, " | 0w%d => ", c.WordKey)
			case SwitchStr, SwitchChar:
				fmt.Fprintf(sb, " | %q => ", c.StrKey)
			}
			write(sb, c.Body)
		}
		if e.Default != nil {
			sb.WriteString(" | _ => ")
			write(sb, e.Default)
		}
		sb.WriteByte(')')
	case *Prim:
		fmt.Fprintf(sb, "%%%s(", e.Op)
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			write(sb, a)
		}
		sb.WriteByte(')')
	case *Builtin:
		fmt.Fprintf(sb, "$%s", e.Name)
	case *Raise:
		sb.WriteString("raise(")
		write(sb, e.Exp)
		sb.WriteByte(')')
	case *Handle:
		sb.WriteByte('(')
		write(sb, e.Body)
		fmt.Fprintf(sb, " handle v%d => ", e.Param)
		write(sb, e.Handler)
		sb.WriteByte(')')
	default:
		sb.WriteString("<?>")
	}
}

// Size counts nodes, for tests and benches.
func Size(e Exp) int {
	n := 1
	switch e := e.(type) {
	case *Record:
		for _, f := range e.Fields {
			n += Size(f)
		}
	case *Select:
		n += Size(e.Rec)
	case *Fn:
		n += Size(e.Body)
	case *Fix:
		for _, f := range e.Fns {
			n += Size(f)
		}
		n += Size(e.Body)
	case *App:
		n += Size(e.Fn) + Size(e.Arg)
	case *Let:
		n += Size(e.Bind) + Size(e.Body)
	case *Con:
		if e.Arg != nil {
			n += Size(e.Arg)
		}
	case *Decon:
		n += Size(e.Exp)
	case *ExnCon:
		n += Size(e.Tag)
		if e.Arg != nil {
			n += Size(e.Arg)
		}
	case *ExnDecon:
		n += Size(e.Exp)
	case *If:
		n += Size(e.Cond) + Size(e.Then) + Size(e.Else)
	case *Switch:
		n += Size(e.Scrut)
		for _, c := range e.Cases {
			n += Size(c.Body)
		}
		if e.Default != nil {
			n += Size(e.Default)
		}
	case *Prim:
		for _, a := range e.Args {
			n += Size(a)
		}
	case *Raise:
		n += Size(e.Exp)
	case *Handle:
		n += Size(e.Body) + Size(e.Handler)
	}
	return n
}
