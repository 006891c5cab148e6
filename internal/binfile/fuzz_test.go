package binfile

import (
	"bytes"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/pickle"
)

// FuzzBinfileRead: rehydrating arbitrary bytes must never panic. (A
// mutated bin can decode into a structurally valid unit; the linker's
// type-safe linkage is the layer that rejects semantic corruption.)
// Every function of a unit that loads is then built, as its first call
// would build it, so the first-call decode of a lambda subtree is
// fuzzed too: it may fail only through Machine.crash, and after a
// successful load it should not fail at all.
func FuzzBinfileRead(f *testing.F) {
	var sink bytes.Buffer
	s, err := compiler.NewSession(&sink)
	if err != nil {
		f.Fatal(err)
	}
	u, err := s.Run("seed", `
		structure V = struct
		  datatype t = A | B of int
		  fun f (B n) = n | f A = 0
		  val r = {tag = "v", num = 3}
		end
	`)
	if err != nil {
		f.Fatal(err)
	}
	data, err := Encode(u)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(append([]byte(Magic), 0xFF, 0x00, 0x7F))
	f.Add([]byte(Magic))
	f.Add([]byte{})
	m := interp.NewMachine()
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := Read(data, pickle.NewIndex())
		if err != nil || u.Prog == nil {
			return
		}
		for _, fn := range interp.LoadedFuncs(u.Prog) {
			forceOrCrash(t, m, fn)
		}
	})
}

// forceOrCrash builds fn, failing the test on any panic that is not a
// Machine.crash, and reporting a crash too: the load validated the
// bytes the build reads.
func forceOrCrash(t *testing.T, m *interp.Machine, fn *interp.CompiledFn) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*interp.CrashError); !ok {
				panic(r)
			}
			t.Errorf("building function %d of a loaded unit crashed: %v", fn.ID, r)
		}
	}()
	interp.Force(m, fn)
}
