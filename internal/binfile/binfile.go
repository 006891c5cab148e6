// Package binfile implements the on-disk representation of compiled
// units — the paper's "bin" files (§3, §6): the unit name, the
// intrinsic static pid, the import pid vector, the dehydrated export
// static environment, and the compiled code.
//
// Reading a bin file rehydrates the environment against a context
// index; a reference to an interface that is not loaded (or whose
// provider was recompiled to a different interface) fails here, before
// anything can be linked — the first layer of type-safe linkage.
//
// The package has one writer, Encode, and one reader, Read; either
// takes a nil obs.Recorder, and Read takes a nil pickle.EnvCache for
// no caching.
//
// Concurrency: Encode is pure over its input. Read resolves stubs in
// the pickle.Index it is given, so concurrent readers must use private
// overlay indexes (pickle.NewOverlay) over a frozen shared base — the
// discipline the parallel scheduler in internal/core follows. The
// pickle.EnvCache Read consults is safe to share between any number of
// concurrent readers and Managers.
package binfile

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
)

// Magic identifies bin files; the trailing digits version the format.
// After the lambda segment comes a code section — the compiled
// engine's slot layout (uvarint length prefix, then the stream
// interp.CompileFn produced) — so warm builds rebuild the closure form
// without re-resolving the term. The section does not feed the
// intrinsic-pid hash. Any other magic, the retired SMLBIN01 (no code
// section) included, fails the read, and the store recompiles.
const Magic = "SMLBIN03"

// hasMagic reports whether data starts with Magic.
func hasMagic(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Encode serializes a compiled unit to bytes, with byte and failure
// accounting on rec (counters binfile.bytes_written,
// binfile.encode_errors).
//
// When the unit carries the canonical pickle of its export environment
// (compiler.Compile's fused hash+pickle traversal), the environment
// segment is derived from it by patching the recorded provisional-
// stamp sites with permanent stamps — no second traversal. The output
// is byte-identical to the slow path either way (the golden invariant
// of DESIGN.md §4f, pinned by TestBinfileGolden). The code section is
// the unit's CodeBytes, which Compile and Read both set; a unit
// without one is an error.
func Encode(u *compiler.Unit, rec obs.Recorder) (out []byte, err error) {
	defer func() {
		if err != nil {
			obs.Count(rec, "binfile.encode_errors", 1)
		} else {
			obs.Count(rec, "binfile.bytes_written", int64(len(out)))
		}
	}()
	code := u.CodeBytes
	if code == nil {
		return nil, fmt.Errorf("binfile: write %s: no code section", u.Name)
	}
	term := u.Term()

	p := pickle.NewPickler(u.StatPid)
	p.Header(u.Name, u.StatPid, u.Imports, u.NumSlots)
	header := p.Bytes()

	if ep := u.EnvPickle; ep != nil {
		out = make([]byte, 0, len(Magic)+len(header)+ep.PermanentSize(u.StatPid)+len(code)+512)
		out = append(out, Magic...)
		out = append(out, header...)
		out = ep.AppendPermanent(out, u.StatPid)
		lp := pickle.NewPickler(u.StatPid)
		lp.Lambda(term)
		if err := lp.Err(); err != nil {
			return nil, fmt.Errorf("binfile: write %s: %v", u.Name, err)
		}
		out = append(out, lp.Bytes()...)
		return appendCodeSection(out, code), nil
	}

	p.Env(u.Env)
	p.Lambda(term)
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("binfile: write %s: %v", u.Name, err)
	}
	out = make([]byte, 0, len(Magic)+len(p.Bytes())+binary.MaxVarintLen64+len(code))
	out = append(out, Magic...)
	out = append(out, p.Bytes()...)
	return appendCodeSection(out, code), nil
}

func appendCodeSection(out, code []byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(code)))
	return append(out, code...)
}

// Read rehydrates a unit from bin-file bytes, resolving external
// references in the context index ix. It accounts bytes and failures
// on rec (counters binfile.bytes_read, binfile.read_errors).
//
// A non-nil cache is a pid-keyed environment cache (counters
// cache.env_hits, cache.env_misses, cache.env_evictions). On a hit —
// the cache holds the bin's interface pid AND the cached entry's
// env-segment bytes are identical to this bin's — the cached
// environment is shared, the env segment is skipped, and only the
// header and code are decoded. The byte
// comparison is what makes sharing sound: identical canonical streams
// patched with the same pid are byte-identical, so segment equality is
// exactly interface identity; the code segment, which a cutoff
// recompilation may change without moving the pid, is always decoded
// from the bytes at hand.
//
// The lambda segment is decoded in full, into a pickle.Scratch, so a
// malformed term anywhere fails the read. The code section is
// loaded into the unit's compiled form (counter code.loads) with every
// coordinate validated against the term; a section that fails
// validation (counter code.load_errors) fails the read, which the
// store layer treats like any other corrupt entry — quarantine and
// recompile. The unit keeps the segment's bytes (TermBytes), not the
// term: its compiled form decodes each function's subtree again on
// that function's first call, and Unit.Term decodes the whole term on
// demand (DESIGN.md §4j, "Lazy terms"). Both slices alias data, which
// must therefore not be modified once read.
func Read(data []byte, ix *pickle.Index, cache *pickle.EnvCache, rec obs.Recorder) (_ *compiler.Unit, err error) {
	obs.Count(rec, "binfile.bytes_read", int64(len(data)))
	defer func() {
		if err != nil {
			obs.Count(rec, "binfile.read_errors", 1)
		}
	}()
	if !hasMagic(data) {
		return nil, fmt.Errorf("binfile: bad magic")
	}
	stream := data[len(Magic):]
	u := pickle.NewUnpickler(stream, ix)
	name, statPid, imports, numSlots := u.Header()
	if err := u.Err(); err != nil {
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}

	var envLayer *env.Env
	envStart := u.Pos()
	if cache != nil {
		if ce := cache.Lookup(statPid); ce != nil &&
			bytes.HasPrefix(stream[envStart:], ce.EnvBytes) {
			obs.Count(rec, "cache.env_hits", 1)
			envLayer = ce.Env
			u.Skip(len(ce.EnvBytes))
		}
	}
	if envLayer == nil {
		if cache != nil {
			obs.Count(rec, "cache.env_misses", 1)
		}
		envLayer = u.Env()
		if err := u.Err(); err != nil {
			return nil, fmt.Errorf("binfile: read %s: %v", name, err)
		}
		if cache != nil {
			seg := append([]byte(nil), stream[envStart:u.Pos()]...)
			ce := &pickle.CachedEnv{Env: envLayer, EnvBytes: seg, Objs: u.TableLen()}
			obs.Count(rec, "cache.env_evictions", int64(cache.Insert(statPid, ce)))
		}
	}

	// Nothing LoadFn builds keeps a node of the term, so the scratch is
	// released on return.
	sc := pickle.GetScratch()
	defer sc.Release()
	lam := stream[u.Pos():]
	code, end, err := sc.Lambda(lam, 0)
	if err != nil {
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}
	fn, ok := code.(*lambda.Fn)
	if !ok {
		return nil, fmt.Errorf("binfile: read %s: code is not a function", name)
	}
	seg, rest := lam[:end:end], lam[end:]

	n, k := binary.Uvarint(rest)
	if k <= 0 || uint64(len(rest)-k) != n {
		obs.Count(rec, "code.load_errors", 1)
		return nil, fmt.Errorf("binfile: read %s: malformed code section", name)
	}
	codeBytes := rest[k:]
	prog, err := interp.LoadFn(name, fn, seg, codeBytes)
	if err != nil {
		obs.Count(rec, "code.load_errors", 1)
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}
	obs.Count(rec, "code.loads", 1)

	return &compiler.Unit{
		Name:      name,
		StatPid:   statPid,
		Env:       envLayer,
		Imports:   imports,
		NumSlots:  numSlots,
		Prog:      prog,
		CodeBytes: codeBytes,
		TermBytes: seg,
	}, nil
}

// ReadHeader decodes only the header (name, static pid, imports,
// export count), for dependency checks that need not rehydrate the
// environment.
func ReadHeader(data []byte) (name string, statPid pid.Pid, imports []pid.Pid, numSlots int, err error) {
	if !hasMagic(data) {
		return "", pid.Zero, nil, 0, fmt.Errorf("binfile: bad magic")
	}
	u := pickle.NewUnpickler(data[len(Magic):], pickle.NewIndex())
	name, statPid, imports, numSlots = u.Header()
	return name, statPid, imports, numSlots, u.Err()
}
