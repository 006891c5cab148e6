package interp

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

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
// cells, the mutability scan and Select, in both engines; and the same
// readers on constructor cells over 2 and 3 fields.
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

			// A constructor cell, built with its tuple as one allocation,
			// reads as a ConV over an ordinary record.
			if n == 2 || n == 3 {
				cell := compiledCon(t, "C", ints(n)...)
				plain := &ConV{Tag: 1, Name: "C", Arg: r}
				if !Eq(cell, plain) || !Eq(plain, cell) {
					t.Error("constructor cell differs from an equal constructed value")
				}
				if Eq(cell, &ConV{Tag: 1, Name: "C", Arg: tuple(ints(n + 1)...)}) {
					t.Error("constructor cell equals one over a wider record")
				}
				if got := String(cell); got != "C "+want {
					t.Errorf("String of a cell = %q, want %q", got, "C "+want)
				}
				if fs, ok := Fields(cell.(*ConV).Arg); !ok || !eqAll(fs, ints(n)) {
					t.Errorf("Fields of a cell's argument = %v, %v", fs, ok)
				}
				_, isList := GoList(compiledCon(t, "::", cellArg...))
				if isList != (n == 2) {
					t.Errorf("GoList of a compiled cell over %d fields: ok=%v", n, isList)
				}
				if ReachesMutable(cell) {
					t.Error("immutable constructor cell reaches a mutable cell")
				}
				vs := ints(n)
				vs[n-1] = &RefV{Cell: IntV(0)}
				if !ReachesMutable(compiledCon(t, "C", vs...)) {
					t.Error("constructor cell with a ref field does not reach it")
				}
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

// compiledCon builds the constructed value name (vs...) with the closure
// builder, from the shape the elaborator gives a constructor applied to
// a tuple: fn p => name (#0 p, ...). It fails the test unless the value
// is a constructor cell, its ConV and tuple in one allocation.
func compiledCon(t *testing.T, name string, vs ...Value) Value {
	t.Helper()
	var g lambda.Gen
	p := g.Fresh()
	fields := make([]lambda.Exp, len(vs))
	for i := range vs {
		fields[i] = &lambda.Select{Idx: i, Rec: &lambda.Var{LV: p}}
	}
	fn := &lambda.Fn{Param: p, Body: &lambda.Con{Tag: 1, Name: name, Arg: &lambda.Record{Fields: fields}}}
	cf, _, _, err := CompileFn("record_test", fn)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewMachine().Apply(&CompiledClosure{Fn: cf}, tuple(vs...))
	if err != nil {
		t.Fatal(err)
	}
	cv := v.(*ConV)
	var inCell Value
	switch len(vs) {
	case 2:
		inCell = &(*conCell2)(unsafe.Pointer(cv)).fields
	case 3:
		inCell = &(*conCell3)(unsafe.Pointer(cv)).fields
	}
	if cv.Arg != inCell {
		t.Fatalf("%s over %d fields: the argument is not in the constructor's cell", name, len(vs))
	}
	return v
}
