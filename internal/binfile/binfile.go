// Package binfile implements the on-disk representation of compiled
// units — the paper's "bin" files (§3, §6): the unit name, the
// intrinsic static pid, the import pid vector, the dehydrated export
// static environment, and the compiled code: the pickled term and its
// code section, which a compiled unit already holds in bin form
// (compiler.Unit.TermBytes, CodeBytes) and a read unit keeps.
//
// Reading a bin file rehydrates the environment against a context
// (pickle.Resolver): each stub names its origin unit's pid and an
// ordinal in that unit's table of stamped objects. A reference to an
// interface that is not in the context (or whose provider was
// recompiled to a different interface) fails here, before anything
// can be linked — the first layer of type-safe linkage. The unit read
// carries its own table (compiler.Unit.Owned) for the units after it.
//
// The package has one writer, Encode, and one reader, Read; either
// takes a nil obs.Recorder, and Read takes a nil pickle.EnvCache for
// no caching.
//
// Concurrency: Encode is pure over its input. Read only reads the
// resolver it is given, so concurrent readers may share one that
// nothing writes meanwhile (the parallel scheduler in internal/core
// gives each load its own view of tables published before the load
// starts). The pickle.EnvCache Read consults is safe to share between
// any number of concurrent readers and Managers.
package binfile

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// without re-resolving the term, exactly as Compile built it. The
// section does not feed the intrinsic-pid hash. Any other magic fails
// the read, and the store recompiles.
const Magic = "SMLBIN07"

// retiredMagics are the formats Magic replaced: SMLBIN01 carried no
// code section, SMLBIN02 the eta-expanded primitive call, SMLBIN03 the
// tuple every curried clausal function built from its parameters,
// SMLBIN04 the alias every one-parameter clausal function bound its
// parameter to, SMLBIN05 the bindings no export can reach, which
// lambda.Prune now drops before the term is pickled, and SMLBIN06 the
// constructor function applied to its argument and the Lets a tuple
// bound its fields with, which the elaborator no longer emits.
var retiredMagics = []string{"SMLBIN01", "SMLBIN02", "SMLBIN03", "SMLBIN04", "SMLBIN05", "SMLBIN06"}

// ErrRetiredMagic is the error Read and ReadHeader wrap for a bin in a
// retired format: a bin this version no longer reads, not a damaged
// one. Callers test for it with errors.Is.
var ErrRetiredMagic = errors.New("binfile: bad magic: retired bin format")

// checkMagic returns nil when data starts with Magic, an error wrapping
// ErrRetiredMagic when it starts with a retired magic, and a bad-magic
// error otherwise.
func checkMagic(data []byte) error {
	if len(data) >= len(Magic) {
		head := string(data[:len(Magic)])
		if head == Magic {
			return nil
		}
		for _, old := range retiredMagics {
			if head == old {
				return fmt.Errorf("%w %s", ErrRetiredMagic, old)
			}
		}
	}
	return errors.New("binfile: bad magic")
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
// of DESIGN.md §4f, pinned by TestBinfileGolden). The lambda segment
// and the code section are the unit's TermBytes and CodeBytes, which
// Compile and Read both set; a unit without them is an error.
func Encode(u *compiler.Unit, rec obs.Recorder) (out []byte, err error) {
	defer func() {
		if err != nil {
			obs.Count(rec, "binfile.encode_errors", 1)
		} else {
			obs.Count(rec, "binfile.bytes_written", int64(len(out)))
		}
	}()
	term, code := u.TermBytes, u.CodeBytes
	if term == nil || code == nil {
		return nil, fmt.Errorf("binfile: write %s: no code", u.Name)
	}

	p := pickle.NewPickler(u.StatPid)
	p.Header(u.Name, u.StatPid, u.Imports, u.NumSlots)
	ep := u.EnvPickle
	if ep == nil {
		p.Env(u.Env)
		if err := p.Err(); err != nil {
			return nil, fmt.Errorf("binfile: write %s: %v", u.Name, err)
		}
	}
	head := p.Bytes() // the header, and the env segment when ep is nil
	size := len(Magic) + len(head) + len(term) + binary.MaxVarintLen64 + len(code)
	if ep != nil {
		size += ep.PermanentSize(u.StatPid)
	}
	out = make([]byte, 0, size)
	out = append(out, Magic...)
	out = append(out, head...)
	if ep != nil {
		out = ep.AppendPermanent(out, u.StatPid)
	}
	out = append(out, term...)
	out = binary.AppendUvarint(out, uint64(len(code)))
	return append(out, code...), nil
}

// Read rehydrates a unit from bin-file bytes, resolving external
// references in ctx. It accounts bytes and failures on rec (counters
// binfile.bytes_read, binfile.read_errors).
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
func Read(data []byte, ctx pickle.Resolver, cache *pickle.EnvCache, rec obs.Recorder) (_ *compiler.Unit, err error) {
	obs.Count(rec, "binfile.bytes_read", int64(len(data)))
	defer func() {
		if err != nil {
			obs.Count(rec, "binfile.read_errors", 1)
		}
	}()
	if err := checkMagic(data); err != nil {
		return nil, err
	}
	stream := data[len(Magic):]
	u := pickle.NewUnpickler(stream, ctx)
	name, statPid, imports, numSlots := u.Header()
	if err := u.Err(); err != nil {
		return nil, fmt.Errorf("binfile: read %s: %v", name, err)
	}

	var envLayer *env.Env
	var owned []any
	envStart := u.Pos()
	if cache != nil {
		if ce := cache.Lookup(statPid); ce != nil &&
			bytes.HasPrefix(stream[envStart:], ce.EnvBytes) {
			obs.Count(rec, "cache.env_hits", 1)
			envLayer, owned = ce.Env, ce.Owned
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
		owned = u.Owned()
		if cache != nil {
			seg := append([]byte(nil), stream[envStart:u.Pos()]...)
			ce := &pickle.CachedEnv{Env: envLayer, EnvBytes: seg, Objs: u.TableLen(), Owned: owned}
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
		Owned:     owned,
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
	if err := checkMagic(data); err != nil {
		return "", pid.Zero, nil, 0, err
	}
	u := pickle.NewUnpickler(data[len(Magic):], nil)
	name, statPid, imports, numSlots = u.Header()
	return name, statPid, imports, numSlots, u.Err()
}
