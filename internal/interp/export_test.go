package interp

import (
	"repro/internal/lambda"
	"repro/internal/pickle"
)

// Test-only views of the compiled form, for the external tests in
// lazy_test.go.

// Escapes reports whether f's activation frames can outlive a call.
func Escapes(f *CompiledFn) bool { return f.escapes }

// Pending reports whether f's body is still to be built.
func Pending(f *CompiledFn) bool { return f.pending.Load() }

// Span returns the code-section byte range of a LoadFn function's body.
func Span(f *CompiledFn) (start, end int) { return int(f.start), int(f.end) }

// TermAt returns the lambda-segment offset of a LoadFn function's term.
func TermAt(f *CompiledFn) int { return int(f.at) }

// Builds reports how many pending bodies of root's unit have been built.
func Builds(root *CompiledFn) int {
	root.tab.mu.Lock()
	defer root.tab.mu.Unlock()
	return root.tab.built
}

// DecodedTerm decodes a LoadFn function's term as its first call does,
// returning it with the lambda-segment bytes it was decoded from. The
// term is valid until release is called.
func DecodedTerm(f *CompiledFn) (term *lambda.Fn, src []byte, release func(), err error) {
	sc := pickle.GetScratch()
	term, end, err := f.decodeTerm(sc)
	if err != nil {
		sc.Release()
		return nil, nil, nil, err
	}
	return term, f.tab.term[f.at:end], sc.Release, nil
}
