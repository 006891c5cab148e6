// Package pickle implements dehydration and rehydration of static
// environments (§4 of the paper) and the canonical byte stream hashed
// to produce intrinsic pids (§5).
//
// Dehydration is a prefix-order traversal of the export environment.
// "Significant" objects — tycons, structures, functors, environments,
// schemes — are memoized by pointer, so DAG sharing is written once and
// back-referenced afterwards (avoiding the exponential blow-up of a
// naive tree copy). Objects whose stamp originates in a *different*
// unit are written as stubs: just their stamp. Rehydration replaces
// each stub with the real in-core object found by stamp lookup in a
// Resolver: the origin pid selects a unit's table of stamped objects
// by ordinal (Index), and the ordinal selects the object.
//
// Stamps are written in alpha-converted form: a stamp still provisional
// (created by the compilation being pickled) is encoded as its ordinal
// among provisional stamps encountered in the traversal — the paper's
// "uses n for the nth distinct pid seen". This is what makes the hash
// of an interface independent of the compiler's internal stamp counter,
// so that recompiling an unchanged source yields an unchanged hash
// (cutoff recompilation), and it is also the order in which permanent
// stamps are assigned afterwards.
//
// The hot path traverses each environment exactly once: CanonicalEnv
// produces the alpha-converted stream together with the byte offsets of
// every provisional-stamp encoding, and EnvPickle.AppendPermanent
// derives the bin-file form by patching those offsets with permanent
// stamps — no second traversal (DESIGN.md §4f). The same order lists
// a unit's own stamped objects by ordinal: EnvPickle.Provisional when
// it compiles, Unpickler.Owned when a bin is read.
//
// Concurrency: a Pickler or Unpickler is per-unit, single-goroutine
// state. An EnvPickle is immutable once built and may be read from any
// goroutine. An Index is written by one goroutine; one that is no
// longer written may be read by any number (see Index). An EnvCache is
// a process-wide shared structure, safe for concurrent use; the
// environments and ordinal tables it hands out are immutable by
// contract (see EnvCache).
package pickle

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/pid"
	"repro/internal/stamps"
)

// writer provides the low-level encoding (all integers varint). It
// appends directly to an owned byte slice: no io.Writer indirection,
// so single-byte writes cost an append, not an interface call plus a
// heap-escaping one-element slice.
type writer struct {
	buf []byte
	err error
}

func (w *writer) error(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

func (w *writer) bytes(b []byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
}

func (w *writer) byteVal(b byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b)
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) varint(v int64) {
	if w.err != nil {
		return
	}
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) int(v int) { w.varint(int64(v)) }
func (w *writer) bool(v bool) {
	if v {
		w.byteVal(1)
	} else {
		w.byteVal(0)
	}
}

func (w *writer) string(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		w.buf = append(w.buf, s...)
	}
}

func (w *writer) float64(f float64) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *writer) pid(p pid.Pid) { w.bytes(p[:]) }

// reader is the decoding counterpart: a zero-copy cursor over a byte
// slice. Multi-byte fields are sliced out of the input directly
// instead of being reassembled byte by byte.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) error(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes of the input without copying, or nil
// after recording truncation.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.pos < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.err = io.EOF
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.err = io.ErrUnexpectedEOF
		} else {
			r.error("pickle: varint overflow")
		}
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.err = io.ErrUnexpectedEOF
		} else {
			r.error("pickle: varint overflow")
		}
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) int() int   { return int(r.varint()) }
func (r *reader) bool() bool { return r.byteVal() != 0 }

func (r *reader) string() string {
	b := r.stringBytes()
	if r.err != nil {
		return ""
	}
	return string(b)
}

// stringBytes reads a string field without copying it out of the input.
func (r *reader) stringBytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > 1<<22 {
		r.error("pickle: string too long")
		return nil
	}
	return r.take(int(n))
}

func (r *reader) float64() float64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) pid() pid.Pid {
	var p pid.Pid
	copy(p[:], r.take(pid.Size))
	return p
}

func (r *reader) stamp() stamps.Stamp {
	return stamps.Stamp{Origin: r.pid(), Index: r.varint()}
}
