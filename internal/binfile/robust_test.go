package binfile

import (
	"testing"
	"testing/quick"

	"repro/internal/pickle"
)

// realBin produces a genuine bin file to mutate.
func realBin(t testing.TB) []byte {
	s := newSession(t.(*testing.T))
	u, err := s.Run("victim", `
		structure V = struct
		  datatype t = A | B of int
		  fun f (B n) = n | f A = 0
		end
	`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTruncationNeverPanics: every prefix of a real bin file must be
// rejected with an error, not a panic (a corrupt cache entry must not
// take the IRM down).
func TestTruncationNeverPanics(t *testing.T) {
	data := realBin(t)
	ix := pickle.NewIndex()
	for cut := 0; cut < len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", cut, r)
				}
			}()
			if _, err := Read(data[:cut], ix, nil, nil); err == nil {
				t.Errorf("truncation %d/%d accepted", cut, len(data))
			}
		}()
	}
}

// TestBitFlipsNeverPanic: random single-byte corruptions must either
// error or decode into *something* without panicking. (A flipped byte
// can decode to a structurally valid unit; type-safe linkage is the
// layer that catches semantic corruption.)
func TestBitFlipsNeverPanic(t *testing.T) {
	data := realBin(t)
	f := func(pos uint16, val byte) (ok bool) {
		mut := append([]byte(nil), data...)
		mut[int(pos)%len(mut)] ^= val | 1
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic at pos %d val %d: %v", pos, val, r)
				ok = false
			}
		}()
		Read(mut, pickle.NewIndex(), nil, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGarbageRejected: arbitrary bytes with a forged magic must error.
func TestGarbageRejected(t *testing.T) {
	f := func(body []byte) bool {
		data := append([]byte(Magic), body...)
		_, err := Read(data, pickle.NewIndex(), nil, nil)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
