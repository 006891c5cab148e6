package interp

// Test-only views of the compiled form, for the external tests in
// lazy_test.go.

// LoadedFuncs returns every function header of a LoadFn program, by ID
// (nil for a CompileFn program).
func LoadedFuncs(root *CompiledFn) []*CompiledFn { return root.tab.fns }

// Escapes reports whether f's activation frames can outlive a call.
func Escapes(f *CompiledFn) bool { return f.escapes }

// Pending reports whether f's body is still to be built.
func Pending(f *CompiledFn) bool { return f.pending.Load() }

// Span returns the code-section byte range of a LoadFn function's body.
func Span(f *CompiledFn) (start, end int) { return int(f.start), int(f.end) }

// Force builds f's body if it is still pending.
func Force(m *Machine, f *CompiledFn) { f.code(m) }
