package core

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry: arbitrary bytes must decode cleanly or error — no
// panic, no allocation beyond the input's own size — and every
// successful decode must survive a re-encode/re-decode round trip. Each
// input is also decoded sealed in a valid SMLIRM02 envelope, so the
// body parser sees arbitrary bytes too, not just those whose CRC
// happens to match. Retired SMLIRM01 entries are always rejected.
func FuzzDecodeEntry(f *testing.F) {
	fix := entryFixture()
	f.Add(EncodeEntry(fix))
	f.Add(encodeEntryV1(fix))
	f.Add(EncodeEntry(&Entry{}))
	f.Add([]byte(entryMagic))
	f.Add([]byte(legacyEntryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEntry(t, sealEntry(data))
		if checkDecodeEntry(t, data) && bytes.HasPrefix(data, []byte(legacyEntryMagic)) {
			t.Fatal("SMLIRM01 entry accepted")
		}
	})
}

// checkDecodeEntry decodes data and, when that succeeds, checks the
// decode against the input and a re-encode round trip. It reports
// whether data decoded.
func checkDecodeEntry(t *testing.T, data []byte) bool {
	t.Helper()
	e, err := DecodeEntry(data)
	if err != nil {
		return false
	}
	// The bin payload is carved out of the input, so it can never
	// exceed it.
	if len(e.Bin) > len(data) {
		t.Fatalf("decoded bin (%d bytes) larger than input (%d)", len(e.Bin), len(data))
	}
	out, err2 := DecodeEntry(EncodeEntry(e))
	if err2 != nil {
		t.Fatalf("re-encoded entry failed to decode: %v", err2)
	}
	if out.SrcHash != e.SrcHash || out.StatPid != e.StatPid ||
		len(out.DepNames) != len(e.DepNames) || len(out.DepPids) != len(e.DepPids) ||
		len(out.Defs) != len(e.Defs) || len(out.Free) != len(e.Free) ||
		!bytes.Equal(out.Bin, e.Bin) {
		t.Fatal("entry round trip not stable")
	}
	return true
}
