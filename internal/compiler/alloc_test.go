package compiler

import (
	"io"
	"testing"
)

// TestNewSessionAllocCeiling pins what a session costs once the
// process has compiled the prelude: a machine, a dynamic environment,
// an index overlay and one execution of the shared prelude code. The
// ceiling of 1,500 fails a regression to compiling the prelude per
// session (about 19,000 allocations); Go 1.24 on x86-64 measures 168.
func TestNewSessionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if _, err := NewSession(io.Discard); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := NewSession(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSession: %.0f allocs", got)
	const ceiling = 1500
	if got > ceiling {
		t.Errorf("NewSession allocates %.0f times, ceiling %d", got, ceiling)
	}
}
