package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/lambda"
)

// primFn is one primitive's implementation, of the fixed arity its op
// declares: f0, f1 or f2 is set, taking the operands directly.
//
// An int-capable binary op (add, sub, mul, div, mod, quot, rem) also
// has i2, its int kernel: the op on unboxed ints, raising Overflow or
// Div as SML does. f2's int case calls it, so each rule is written
// once, and the closure builder calls it directly between arithmetic
// primitives, whose intermediate results then stay unboxed (comp.prim).
type primFn struct {
	f0 func(m *Machine) Value
	f1 func(m *Machine, a Value) Value
	f2 func(m *Machine, a, b Value) Value
	i2 func(m *Machine, x, y int64) int64
}

// primOf returns the implementation of a Prim of op with n operands.
// An op outside the table, or an operand count other than its arity,
// is an error: the closure builder refuses such a term when it builds
// or loads the function, before anything runs.
func primOf(op lambda.Op, n int) (primFn, error) {
	if n != op.Arity() {
		return primFn{}, fmt.Errorf("primitive %s with %d operands, want %d", op, n, op.Arity())
	}
	return prims[op], nil
}

// prims implements every lambda.Op. Arithmetic and comparison are
// overloaded in SML; the elaborator guarantees homogeneous operand
// types, so each overloaded op dispatches on the runtime
// representation, testing for the int case first.
var prims = [lambda.NumOps]primFn{
	lambda.OpAdd: {i2: addInt, f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return boxInt(addInt(m, x, y))
		}
		switch x := a.(type) {
		case RealV:
			if y, ok := b.(RealV); ok {
				return x + y
			}
		case WordV:
			if y, ok := b.(WordV); ok {
				return x + y
			}
		}
		return m.crash("add of %s and %s", String(a), String(b))
	}},
	lambda.OpSub: {i2: subInt, f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return boxInt(subInt(m, x, y))
		}
		switch x := a.(type) {
		case RealV:
			if y, ok := b.(RealV); ok {
				return x - y
			}
		case WordV:
			if y, ok := b.(WordV); ok {
				return x - y
			}
		}
		return m.crash("sub of %s and %s", String(a), String(b))
	}},
	lambda.OpMul: {i2: mulInt, f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return boxInt(mulInt(m, x, y))
		}
		switch x := a.(type) {
		case RealV:
			if y, ok := b.(RealV); ok {
				return x * y
			}
		case WordV:
			if y, ok := b.(WordV); ok {
				return x * y
			}
		}
		return m.crash("mul of %s and %s", String(a), String(b))
	}},
	lambda.OpDiv: {i2: divInt, f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return boxInt(divInt(m, x, y))
		}
		return m.wordDiv(a, b, false)
	}},
	lambda.OpMod: {i2: modInt, f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return boxInt(modInt(m, x, y))
		}
		return m.wordDiv(a, b, true)
	}},
	lambda.OpQuot: {i2: quotInt, f2: func(m *Machine, a, b Value) Value {
		return boxInt(quotInt(m, m.intArg(a), m.intArg(b)))
	}},
	lambda.OpRem: {i2: remInt, f2: func(m *Machine, a, b Value) Value {
		return boxInt(remInt(m, m.intArg(a), m.intArg(b)))
	}},
	lambda.OpFdiv: {f2: func(m *Machine, a, b Value) Value {
		return RealV(m.realArg(a) / m.realArg(b))
	}},
	lambda.OpNeg: {f1: func(m *Machine, a Value) Value {
		switch x := a.(type) {
		case IntV:
			if x == math.MinInt64 {
				m.raise(m.TagOverflow, nil)
			}
			return boxInt(int64(-x))
		case RealV:
			return -x
		case WordV:
			return -x
		}
		return m.crash("neg of %s", String(a))
	}},
	lambda.OpAbs: {f1: func(m *Machine, a Value) Value {
		switch x := a.(type) {
		case IntV:
			if x == math.MinInt64 {
				m.raise(m.TagOverflow, nil)
			}
			return boxInt(max(int64(x), int64(-x)))
		case RealV:
			return RealV(math.Abs(float64(x)))
		}
		return m.crash("abs of %s", String(a))
	}},
	lambda.OpLt: {f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return Bool(x < y)
		}
		c, ok := m.compare(a, b)
		return Bool(ok && c < 0)
	}},
	lambda.OpLe: {f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return Bool(x <= y)
		}
		c, ok := m.compare(a, b)
		return Bool(ok && c <= 0)
	}},
	lambda.OpGt: {f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return Bool(x > y)
		}
		c, ok := m.compare(a, b)
		return Bool(ok && c > 0)
	}},
	lambda.OpGe: {f2: func(m *Machine, a, b Value) Value {
		if x, y, ok := bothInts(a, b); ok {
			return Bool(x >= y)
		}
		c, ok := m.compare(a, b)
		return Bool(ok && c >= 0)
	}},
	lambda.OpEq: {f2: func(_ *Machine, a, b Value) Value { return Bool(Eq(a, b)) }},
	lambda.OpNe: {f2: func(_ *Machine, a, b Value) Value { return Bool(!Eq(a, b)) }},
	lambda.OpConcat: {f2: func(m *Machine, a, b Value) Value {
		return StrV(m.strArg(a) + m.strArg(b))
	}},
	lambda.OpSize: {f1: func(m *Machine, a Value) Value { return boxInt(int64(len(m.strArg(a)))) }},
	lambda.OpStr:  {f1: func(m *Machine, a Value) Value { return StrV(string(m.charArg(a))) }},
	lambda.OpChr: {f1: func(m *Machine, a Value) Value {
		n := m.intArg(a)
		if n < 0 || n > 255 {
			m.raise(m.TagChr, nil)
		}
		return CharV(n)
	}},
	lambda.OpOrd: {f1: func(m *Machine, a Value) Value { return boxInt(int64(m.charArg(a))) }},
	lambda.OpExplode: {f1: func(m *Machine, a Value) Value {
		s := m.strArg(a)
		elems := make([]Value, len(s))
		for i := 0; i < len(s); i++ {
			elems[i] = CharV(s[i])
		}
		return List(elems)
	}},
	lambda.OpImplode: {f1: func(m *Machine, a Value) Value {
		var sb strings.Builder
		for _, e := range m.listArg(a) {
			sb.WriteByte(m.charArg(e))
		}
		return StrV(sb.String())
	}},
	lambda.OpSubstring: {f1: func(m *Machine, a Value) Value {
		t := m.tupleArg(a, 3)
		s, i, n := m.strArg(t[0]), m.intArg(t[1]), m.intArg(t[2])
		if i < 0 || n < 0 || i > int64(len(s)) || n > int64(len(s))-i {
			m.raise(m.TagSubscript, nil)
		}
		return StrV(s[i : i+n])
	}},
	lambda.OpReal:  {f1: func(m *Machine, a Value) Value { return RealV(m.intArg(a)) }},
	lambda.OpFloor: {f1: func(m *Machine, a Value) Value { return m.realToInt(math.Floor(m.realArg(a))) }},
	lambda.OpCeil:  {f1: func(m *Machine, a Value) Value { return m.realToInt(math.Ceil(m.realArg(a))) }},
	lambda.OpRound: {f1: func(m *Machine, a Value) Value { return m.realToInt(math.RoundToEven(m.realArg(a))) }},
	lambda.OpTrunc: {f1: func(m *Machine, a Value) Value { return m.realToInt(math.Trunc(m.realArg(a))) }},
	lambda.OpSqrt:  {f1: func(m *Machine, a Value) Value { return RealV(math.Sqrt(m.realArg(a))) }},
	lambda.OpLn:    {f1: func(m *Machine, a Value) Value { return RealV(math.Log(m.realArg(a))) }},
	lambda.OpExp:   {f1: func(m *Machine, a Value) Value { return RealV(math.Exp(m.realArg(a))) }},
	lambda.OpSin:   {f1: func(m *Machine, a Value) Value { return RealV(math.Sin(m.realArg(a))) }},
	lambda.OpCos:   {f1: func(m *Machine, a Value) Value { return RealV(math.Cos(m.realArg(a))) }},
	lambda.OpAtan:  {f1: func(m *Machine, a Value) Value { return RealV(math.Atan(m.realArg(a))) }},
	lambda.OpIntToString: {f1: func(m *Machine, a Value) Value {
		return StrV(strings.ReplaceAll(strconv.FormatInt(m.intArg(a), 10), "-", "~"))
	}},
	lambda.OpRealToString: {f1: func(_ *Machine, a Value) Value { return StrV(String(a)) }},
	lambda.OpRef:          {f1: func(_ *Machine, a Value) Value { return &RefV{Cell: a} }},
	lambda.OpDeref:        {f1: func(m *Machine, a Value) Value { return m.refArg(a).Cell }},
	lambda.OpAssign: {f2: func(m *Machine, a, b Value) Value {
		m.refArg(a).Cell = b
		return Unit()
	}},
	lambda.OpPrint: {f1: func(m *Machine, a Value) Value {
		fmt.Fprint(m.Stdout, m.strArg(a))
		return Unit()
	}},
	lambda.OpExnName: {f1: func(m *Machine, a Value) Value {
		ev, ok := a.(*ExnV)
		if !ok {
			return m.crash("exnName of %s", String(a))
		}
		return StrV(ev.Tag.Name)
	}},
	lambda.OpExnMatches: {f2: func(m *Machine, a, b Value) Value {
		ev, ok1 := a.(*ExnV)
		tag, ok2 := b.(*ExnTag)
		if !ok1 || !ok2 {
			return m.crash("exnMatches of %s, %s", String(a), String(b))
		}
		return Bool(ev.Tag == tag)
	}},
	lambda.OpRaiseMatch: {f0: func(m *Machine) Value { return m.raise(m.TagMatch, nil) }},
	lambda.OpRaiseBind:  {f0: func(m *Machine) Value { return m.raise(m.TagBind, nil) }},
	lambda.OpAndb:       {f2: func(m *Machine, a, b Value) Value { return WordV(m.wordArg(a) & m.wordArg(b)) }},
	lambda.OpOrb:        {f2: func(m *Machine, a, b Value) Value { return WordV(m.wordArg(a) | m.wordArg(b)) }},
	lambda.OpXorb:       {f2: func(m *Machine, a, b Value) Value { return WordV(m.wordArg(a) ^ m.wordArg(b)) }},
	lambda.OpNotb:       {f1: func(m *Machine, a Value) Value { return WordV(^m.wordArg(a)) }},
	lambda.OpLshift:     {f2: func(m *Machine, a, b Value) Value { return WordV(m.wordArg(a) << m.wordArg(b)) }},
	lambda.OpRshift:     {f2: func(m *Machine, a, b Value) Value { return WordV(m.wordArg(a) >> m.wordArg(b)) }},
	lambda.OpWordToInt: {f1: func(m *Machine, a Value) Value {
		w := m.wordArg(a)
		if w > math.MaxInt64 {
			m.raise(m.TagOverflow, nil)
		}
		return boxInt(int64(w))
	}},
	lambda.OpIntToWord: {f1: func(m *Machine, a Value) Value { return WordV(m.intArg(a)) }},
	lambda.OpArray: {f1: func(m *Machine, a Value) Value {
		t := m.tupleArg(a, 2)
		n := m.intArg(t[0])
		if n < 0 || n > 1<<28 {
			m.raise(m.TagSize, nil)
		}
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = t[1]
		}
		return &ArrV{Elems: elems}
	}},
	lambda.OpArrayFromList: {f1: func(m *Machine, a Value) Value { return &ArrV{Elems: m.listArg(a)} }},
	lambda.OpAsub: {f1: func(m *Machine, a Value) Value {
		t := m.tupleArg(a, 2)
		arr := m.arrArg(t[0])
		return arr.Elems[m.index(t[1], len(arr.Elems))]
	}},
	lambda.OpAupdate: {f1: func(m *Machine, a Value) Value {
		t := m.tupleArg(a, 3)
		arr := m.arrArg(t[0])
		arr.Elems[m.index(t[1], len(arr.Elems))] = t[2]
		return Unit()
	}},
	lambda.OpAlength:        {f1: func(m *Machine, a Value) Value { return boxInt(int64(len(m.arrArg(a).Elems))) }},
	lambda.OpVectorFromList: {f1: func(m *Machine, a Value) Value { return VecV(m.listArg(a)) }},
	lambda.OpVsub: {f1: func(m *Machine, a Value) Value {
		t := m.tupleArg(a, 2)
		v := m.vecArg(t[0])
		return v[m.index(t[1], len(v))]
	}},
	lambda.OpVlength: {f1: func(m *Machine, a Value) Value { return boxInt(int64(len(m.vecArg(a)))) }},
}

// bothInts returns a and b as ints when both are: the first case of every
// overloaded op.
func bothInts(a, b Value) (x, y int64, ok bool) {
	i, ok1 := a.(IntV)
	j, ok2 := b.(IntV)
	return int64(i), int64(j), ok1 && ok2
}

// The int kernels. Each raises Overflow where the exact result does not
// fit in 64 bits, and the division kernels raise Div on a zero divisor
// before anything else.

func addInt(m *Machine, x, y int64) int64 {
	r := x + y
	if (x > 0 && y > 0 && r < 0) || (x < 0 && y < 0 && r >= 0) {
		m.raise(m.TagOverflow, nil)
	}
	return r
}

func subInt(m *Machine, x, y int64) int64 {
	r := x - y
	if (x >= 0 && y < 0 && r < 0) || (x < 0 && y > 0 && r >= 0) {
		m.raise(m.TagOverflow, nil)
	}
	return r
}

// mulInt tests the product by dividing it back, which misses only
// ~1 * minInt: that product wraps to minInt, and so does minInt div ~1.
func mulInt(m *Machine, x, y int64) int64 {
	r := x * y
	if (x != 0 && r/x != y) || (x == -1 && y == math.MinInt64) {
		m.raise(m.TagOverflow, nil)
	}
	return r
}

// divInt is SML's div, which rounds toward negative infinity.
func divInt(m *Machine, x, y int64) int64 {
	q := quotInt(m, x, y)
	if x%y != 0 && (x < 0) != (y < 0) {
		q--
	}
	return q
}

// modInt is SML's mod, whose result takes the divisor's sign.
func modInt(m *Machine, x, y int64) int64 {
	r := remInt(m, x, y)
	if r != 0 && (r < 0) != (y < 0) {
		r += y
	}
	return r
}

// quotInt is SML's quot, which rounds toward zero: minInt quot ~1 is
// the one quotient that overflows.
func quotInt(m *Machine, x, y int64) int64 {
	if y == 0 {
		m.raise(m.TagDiv, nil)
	}
	if x == math.MinInt64 && y == -1 {
		m.raise(m.TagOverflow, nil)
	}
	return x / y
}

func remInt(m *Machine, x, y int64) int64 {
	if y == 0 {
		m.raise(m.TagDiv, nil)
	}
	return x % y
}

// wordDiv implements div and mod on words, raising Div on a zero
// divisor.
func (m *Machine) wordDiv(a, b Value, wantMod bool) Value {
	x, y := m.wordArg(a), m.wordArg(b)
	if y == 0 {
		m.raise(m.TagDiv, nil)
	}
	if wantMod {
		return WordV(x % y)
	}
	return WordV(x / y)
}

// compare orders two values of one ordered type: negative, zero or
// positive as a is less than, equal to or greater than b. ok is false
// when a real operand is NaN, which is unordered: <, <=, > and >= are
// all false on it.
func (m *Machine) compare(a, b Value) (c int, ok bool) {
	switch x := a.(type) {
	case IntV:
		if y, ok := b.(IntV); ok {
			return cmpOrd(x, y), true
		}
	case WordV:
		if y, ok := b.(WordV); ok {
			return cmpOrd(x, y), true
		}
	case RealV:
		if y, ok := b.(RealV); ok {
			return cmpOrd(x, y), !math.IsNaN(float64(x)) && !math.IsNaN(float64(y))
		}
	case StrV:
		if y, ok := b.(StrV); ok {
			return strings.Compare(string(x), string(y)), true
		}
	case CharV:
		if y, ok := b.(CharV); ok {
			return cmpOrd(x, y), true
		}
	}
	m.crash("compare %s with %s", String(a), String(b))
	return 0, false
}

func cmpOrd[T IntV | WordV | RealV | CharV](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// realToInt converts an integral real to an int, raising Overflow when
// it does not fit (or is NaN).
func (m *Machine) realToInt(f float64) Value {
	if f > math.MaxInt64 || f < math.MinInt64 || math.IsNaN(f) {
		m.raise(m.TagOverflow, nil)
	}
	return boxInt(int64(f))
}

// index returns v as an index into a sequence of length n, raising
// Subscript when it is out of range.
func (m *Machine) index(v Value, n int) int64 {
	i := m.intArg(v)
	if i < 0 || i >= int64(n) {
		m.raise(m.TagSubscript, nil)
	}
	return i
}

// The operand accessors crash on a representation the elaborator's
// typing makes unreachable.

func (m *Machine) intArg(v Value) int64 {
	n, ok := v.(IntV)
	if !ok {
		m.crash("expected int, got %s", String(v))
	}
	return int64(n)
}

func (m *Machine) strArg(v Value) string {
	s, ok := v.(StrV)
	if !ok {
		m.crash("expected string, got %s", String(v))
	}
	return string(s)
}

func (m *Machine) charArg(v Value) byte {
	c, ok := v.(CharV)
	if !ok {
		m.crash("expected char, got %s", String(v))
	}
	return byte(c)
}

func (m *Machine) realArg(v Value) float64 {
	r, ok := v.(RealV)
	if !ok {
		m.crash("expected real, got %s", String(v))
	}
	return float64(r)
}

func (m *Machine) wordArg(v Value) uint64 {
	w, ok := v.(WordV)
	if !ok {
		m.crash("expected word, got %s", String(v))
	}
	return uint64(w)
}

func (m *Machine) refArg(v Value) *RefV {
	r, ok := v.(*RefV)
	if !ok {
		m.crash("expected ref, got %s", String(v))
	}
	return r
}

func (m *Machine) arrArg(v Value) *ArrV {
	a, ok := v.(*ArrV)
	if !ok {
		m.crash("expected array, got %s", String(v))
	}
	return a
}

func (m *Machine) vecArg(v Value) VecV {
	a, ok := v.(VecV)
	if !ok {
		m.crash("expected vector, got %s", String(v))
	}
	return a
}

func (m *Machine) listArg(v Value) []Value {
	elems, ok := GoList(v)
	if !ok {
		m.crash("expected list, got %s", String(v))
	}
	return elems
}

func (m *Machine) tupleArg(v Value, n int) []Value {
	t, ok := Fields(v)
	if !ok || len(t) != n {
		m.crash("expected %d-tuple, got %s", n, String(v))
	}
	return t
}
