package interp

import (
	"slices"

	"repro/internal/lambda"
	"repro/internal/pickle"
)

// Test-only views of the compiled form, for the external tests in
// lazy_test.go.

// Escapes reports whether f's activation frames can outlive a call.
func Escapes(f *CompiledFn) bool { return f.escapes }

// Borrows reports whether a call may lend f a tuple argument.
func Borrows(f *CompiledFn) bool { return f.borrows }

// InnerID returns the ID of f's curried inner function, or -1.
func InnerID(f *CompiledFn) int32 {
	if f.inner == nil {
		return -1
	}
	return f.inner.ID
}

// Pending reports whether f's body is still to be built.
func Pending(f *CompiledFn) bool { return f.pending.Load() }

// Span returns the code-section byte range of a nested function's body.
func Span(f *CompiledFn) (start, end int) { return int(f.start), int(f.end) }

// Nested returns how many functions are nested in f.
func Nested(f *CompiledFn) int { return int(f.nested) }

// Builds reports how many pending bodies of root's unit have been built.
func Builds(root *CompiledFn) int {
	root.tab.mu.Lock()
	defer root.tab.mu.Unlock()
	return root.tab.built
}

// DecodedTerm decodes a nested function's term as its first call does,
// returning it with the lambda-segment bytes it was decoded from. The
// term is valid until release is called.
func DecodedTerm(f *CompiledFn) (term *lambda.Fn, src []byte, release func(), err error) {
	sc := pickle.GetScratch()
	term, end, err := f.decodeTerm(sc)
	if err != nil {
		sc.Release()
		return nil, nil, nil, err
	}
	return term, f.tab.term[f.Pos:end], sc.Release, nil
}

// IsJoin reports whether l's function is a join point: every use of
// its binder in l's body is a direct call in the binding's frame.
func IsJoin(l *lambda.Let) bool { return isJoin(l.Body, l.LV) }

// Pooled reports whether v is one of the tuples m's pool holds for
// lending.
func Pooled(m *Machine, v Value) bool {
	if m.pool == nil {
		return false
	}
	switch t := v.(type) {
	case *tuple2:
		return slices.Contains(m.pool.pairs, t)
	case *tuple3:
		return slices.Contains(m.pool.triples, t)
	}
	return false
}

// PooledFrames reports how many frames m's pool holds.
func PooledFrames(m *Machine) int {
	if m.pool == nil {
		return 0
	}
	return len(m.pool.frames)
}
