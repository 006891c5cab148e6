package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lambda"
)

// tuple builds the record of vs through the one record constructor.
func tuple(vs ...Value) Value {
	r, fs := NewRecord(len(vs))
	copy(fs, vs)
	return r
}

// ints returns the fields 1, ..., n.
func ints(n int) []Value {
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = IntV(i + 1)
	}
	return vs
}

// TestRecordArities checks every reader of records on arities 0-4,
// which span all three representations: equality, printing, list
// cells, the mutability scan and Select, in both engines.
func TestRecordArities(t *testing.T) {
	for n := 0; n <= 4; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := tuple(ints(n)...)
			fs, ok := Fields(r)
			if !ok || len(fs) != n {
				t.Fatalf("Fields(NewRecord(%d)) = %d fields, ok=%v", n, len(fs), ok)
			}
			for i, f := range fs {
				if f != IntV(i+1) {
					t.Errorf("field %d = %s", i, String(f))
				}
			}

			// Equality: structural within an arity, false across.
			if !Eq(r, tuple(ints(n)...)) {
				t.Error("record differs from an equal one")
			}
			if Eq(r, tuple(ints(n+1)...)) || Eq(tuple(ints(n+1)...), r) {
				t.Error("records of different arity are equal")
			}
			if n > 0 {
				other := ints(n)
				other[n-1] = IntV(99)
				if Eq(r, tuple(other...)) {
					t.Error("records with different last fields are equal")
				}
			}
			if Eq(r, IntV(1)) || Eq(IntV(1), r) {
				t.Error("record equals an int")
			}

			// Printing.
			want := "()"
			if n > 0 {
				parts := make([]string, n)
				for i := range parts {
					parts[i] = fmt.Sprint(i + 1)
				}
				want = "(" + strings.Join(parts, ", ") + ")"
			}
			if got := String(r); got != want {
				t.Errorf("String = %q, want %q", got, want)
			}

			// A cons cell is a list only when its argument is a pair.
			nilV := &ConV{Tag: 0, Name: "nil"}
			cellArg := ints(n)
			if n >= 2 {
				cellArg[1] = nilV
			}
			_, isList := GoList(&ConV{Tag: 1, Name: "::", Arg: tuple(cellArg...)})
			if isList != (n == 2) {
				t.Errorf("GoList of a cell over %d fields: ok=%v", n, isList)
			}

			// Mutability: a ref in the last field is reached.
			if ReachesMutable(r) {
				t.Error("immutable record reaches a mutable cell")
			}
			if n > 0 {
				vs := ints(n)
				vs[n-1] = &RefV{Cell: IntV(0)}
				if !ReachesMutable(tuple(vs...)) {
					t.Error("record with a ref field does not reach it")
				}
			}

			// Select: the last field selects, one past it crashes.
			for _, eng := range engines {
				if n > 0 {
					v, err := selectIn(eng, n-1, r)
					if err != nil || v != IntV(n) {
						t.Errorf("%s: select .%d = %v, %v; want %d", eng.name, n-1, v, err, n)
					}
				}
				_, err := selectIn(eng, n, r)
				if _, ok := err.(*CrashError); !ok || !strings.Contains(err.Error(), "select") {
					t.Errorf("%s: select .%d of %d fields: err=%v, want a select crash", eng.name, n, n, err)
				}
			}
		})
	}
}

// engine applies a one-argument function term to an argument.
type engine struct {
	name  string
	apply func(m *Machine, fn *lambda.Fn, arg Value) (Value, error)
}

// engines are the reference tree walker and the closure builder.
var engines = []engine{
	{"tree", func(m *Machine, fn *lambda.Fn, arg Value) (Value, error) {
		f, err := m.Eval(fn, nil)
		if err != nil {
			return nil, err
		}
		return m.Apply(f, arg)
	}},
	{"compiled", func(m *Machine, fn *lambda.Fn, arg Value) (Value, error) {
		cf, _, _, err := CompileFn("record_test", fn)
		if err != nil {
			return nil, err
		}
		return m.Apply(&CompiledClosure{Fn: cf}, arg)
	}},
}

// selectIn applies fn r => #idx r to rec in one engine.
func selectIn(eng engine, idx int, rec Value) (Value, error) {
	var g lambda.Gen
	p := g.Fresh()
	fn := &lambda.Fn{Param: p, Body: &lambda.Select{Idx: idx, Rec: &lambda.Var{LV: p}}}
	return eng.apply(NewMachine(), fn, rec)
}
