// Package interp gives dynamic semantics to the lambda IR: runtime
// values, the evaluator, and the primitive operations of the basis.
//
// The evaluator implements the paper's execute phase: a compilation
// unit's code is a closed function from the vector of imported values to
// the record of exported values, so the whole dynamic state of a linked
// program is carried in explicit value vectors — never in global
// variables of the host.
//
// Concurrency: a Machine, with its pool of frames and argument tuples,
// is confined to a single goroutine. The IRM executes units
// concurrently, each on its own Machine.Fork run by one exec worker
// goroutine; a worker hands its pool from one unit's fork to the next
// (Machine.HandOff), and no pool is shared between workers. Compiled code is shared: a
// function's body is built once, on its first call from any goroutine,
// and immutable after.
package interp

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is an ML runtime value.
type Value interface{ isValue() }

// IntV is an int value.
type IntV int64

// WordV is a word value.
type WordV uint64

// RealV is a real value.
type RealV float64

// StrV is a string value.
type StrV string

// CharV is a char value.
type CharV byte

// RecordV is a record or tuple value of any arity but two and three;
// the empty record is unit. Two- and three-field records are *tuple2
// and *tuple3. Code builds a record with NewRecord and reads one with
// Fields; nothing else names a representation.
type RecordV []Value

// tuple2 and tuple3 are the two- and three-field records: one
// allocation each (32 and 48 bytes), with no slice header to box. They
// are the list cell's pair, most tuples a program builds, and the
// import and export vectors of small units.
type (
	tuple2 [2]Value
	tuple3 [3]Value
)

// ConV is a datatype value: constructor tag plus optional argument.
type ConV struct {
	Tag  int
	Name string
	Arg  Value // nil for nullary constructors
}

// RefV is a mutable reference cell.
type RefV struct{ Cell Value }

// ArrV is a mutable array; like refs, arrays compare by identity.
type ArrV struct{ Elems []Value }

// VecV is an immutable vector; vectors compare structurally.
type VecV []Value

// ExnTag is a generative exception tag; identity is pointer identity.
type ExnTag struct{ Name string }

// ExnV is an exception value (packet contents).
type ExnV struct {
	Tag *ExnTag
	Arg Value // nil for nullary exceptions
}

func (IntV) isValue()    {}
func (WordV) isValue()   {}
func (RealV) isValue()   {}
func (StrV) isValue()    {}
func (CharV) isValue()   {}
func (RecordV) isValue() {}
func (*tuple2) isValue() {}
func (*tuple3) isValue() {}
func (*ConV) isValue()   {}
func (*RefV) isValue()   {}
func (*ArrV) isValue()   {}
func (VecV) isValue()    {}
func (*ExnTag) isValue() {}
func (*ExnV) isValue()   {}

// Unit is the unit value.
func Unit() Value { return RecordV(nil) }

// NewRecord returns a record of n fields, in the representation its
// arity selects, and the slice of its fields in label order. The
// caller fills the slice before the record is used and never writes
// it after.
func NewRecord(n int) (rec Value, fields []Value) {
	switch n {
	case 0:
		return Unit(), nil
	case 2:
		t := new(tuple2)
		return t, t[:]
	case 3:
		t := new(tuple3)
		return t, t[:]
	}
	r := make(RecordV, n)
	return r, r
}

// Fields returns the fields of a record value in label order; ok is
// false if v is not a record. The slice aliases the record: callers
// read it and never write it.
func Fields(v Value) (fields []Value, ok bool) {
	switch r := v.(type) {
	case *tuple2:
		return r[:], true
	case *tuple3:
		return r[:], true
	case RecordV:
		return r, true
	}
	return nil, false
}

// Shared booleans: nullary ConVs are immutable and compared
// structurally, so one value per truth value is observationally
// identical to a fresh one — and comparison-heavy loops allocate
// nothing.
var (
	trueV  Value = &ConV{Tag: 1, Name: "true"}
	falseV Value = &ConV{Tag: 0, Name: "false"}
)

// Bool converts a Go bool to the ML bool representation (datatype
// bool = false | true, tags 0 and 1).
func Bool(b bool) Value {
	if b {
		return trueV
	}
	return falseV
}

// Truth reports whether v is the ML true value.
func Truth(v Value) bool {
	c, ok := v.(*ConV)
	return ok && c.Tag == 1
}

// List converts a Go slice to an ML list value.
func List(elems []Value) Value {
	v := Value(&ConV{Tag: 0, Name: "nil"})
	for i := len(elems) - 1; i >= 0; i-- {
		pair, fs := NewRecord(2)
		fs[0], fs[1] = elems[i], v
		v = &ConV{Tag: 1, Name: "::", Arg: pair}
	}
	return v
}

// GoList converts an ML list value to a Go slice; ok is false if v is
// not a proper list.
func GoList(v Value) ([]Value, bool) {
	var out []Value
	for {
		c, isCon := v.(*ConV)
		if !isCon {
			return nil, false
		}
		if c.Tag == 0 {
			return out, true
		}
		pair, isRec := Fields(c.Arg)
		if !isRec || len(pair) != 2 {
			return nil, false
		}
		out = append(out, pair[0])
		v = pair[1]
	}
}

// Eq implements ML polymorphic structural equality. Refs and exception
// tags compare by identity; closures are never compared (the type
// system rules it out, so reaching one here is an internal error).
func Eq(a, b Value) bool {
	switch a := a.(type) {
	case IntV:
		bb, ok := b.(IntV)
		return ok && a == bb
	case WordV:
		bb, ok := b.(WordV)
		return ok && a == bb
	case RealV:
		bb, ok := b.(RealV)
		return ok && a == bb
	case StrV:
		bb, ok := b.(StrV)
		return ok && a == bb
	case CharV:
		bb, ok := b.(CharV)
		return ok && a == bb
	case *ConV:
		bb, ok := b.(*ConV)
		if !ok || a.Tag != bb.Tag {
			return false
		}
		if a.Arg == nil || bb.Arg == nil {
			return a.Arg == nil && bb.Arg == nil
		}
		return Eq(a.Arg, bb.Arg)
	case *RefV:
		bb, ok := b.(*RefV)
		return ok && a == bb
	case *ArrV:
		bb, ok := b.(*ArrV)
		return ok && a == bb
	case VecV:
		bb, ok := b.(VecV)
		return ok && eqAll(a, bb)
	case *ExnTag:
		return a == b
	case *ExnV:
		bb, ok := b.(*ExnV)
		return ok && a.Tag == bb.Tag
	}
	if fa, ok := Fields(a); ok {
		fb, ok := Fields(b)
		return ok && eqAll(fa, fb)
	}
	return false
}

// eqAll reports whether a and b are equal field by field.
func eqAll(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// String renders a value in ML notation.
func String(v Value) string {
	var sb strings.Builder
	writeValue(&sb, v, 0)
	return sb.String()
}

func writeValue(sb *strings.Builder, v Value, depth int) {
	if depth > 20 {
		sb.WriteString("...")
		return
	}
	switch v := v.(type) {
	case IntV:
		sb.WriteString(strings.Replace(strconv.FormatInt(int64(v), 10), "-", "~", 1))
	case WordV:
		fmt.Fprintf(sb, "0wx%x", uint64(v))
	case RealV:
		s := fmt.Sprintf("%g", float64(v))
		s = strings.ReplaceAll(s, "-", "~")
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		sb.WriteString(s)
	case StrV:
		fmt.Fprintf(sb, "%q", string(v))
	case CharV:
		fmt.Fprintf(sb, "#%q", string(v))
	case *ConV:
		if elems, ok := GoList(Value(v)); ok && (v.Name == "nil" || v.Name == "::") {
			sb.WriteByte('[')
			for i, e := range elems {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeValue(sb, e, depth+1)
			}
			sb.WriteByte(']')
			return
		}
		sb.WriteString(v.Name)
		if v.Arg != nil {
			sb.WriteByte(' ')
			writeValue(sb, v.Arg, depth+1)
		}
	case *CompiledClosure:
		sb.WriteString("fn")
	case *RefV:
		sb.WriteString("ref ")
		writeValue(sb, v.Cell, depth+1)
	case *ArrV:
		fmt.Fprintf(sb, "array(%d)", len(v.Elems))
	case VecV:
		sb.WriteString("#[")
		for i, e := range v {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeValue(sb, e, depth+1)
		}
		sb.WriteByte(']')
	case *ExnTag:
		fmt.Fprintf(sb, "exn(%s)", v.Name)
	case *ExnV:
		sb.WriteString(v.Tag.Name)
		if v.Arg != nil {
			sb.WriteByte(' ')
			writeValue(sb, v.Arg, depth+1)
		}
	default:
		fs, ok := Fields(v)
		switch {
		case !ok:
			sb.WriteString("<?>")
		case len(fs) == 0:
			sb.WriteString("()")
		default:
			sb.WriteByte('(')
			for i, f := range fs {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeValue(sb, f, depth+1)
			}
			sb.WriteByte(')')
		}
	}
}
