// Parallel DAG build scheduler (DESIGN.md §4e).
//
// The paper's unit model (§3) makes compilation units closed functions
// with explicit pid-based imports and exports, so units whose imports
// are all resolved are independent by construction. The scheduler
// exploits exactly that property: a worker pool compiles (or
// rehydrates) units the moment their dependencies' interface pids are
// known, while a single committer applies the effectful tail of each
// unit's turn — execute, accept, save, explain — strictly in the
// legacy topological order.
//
// The split is what makes parallel builds deterministic:
//
//   - Workers do only per-unit-deterministic work (parse, elaborate,
//     hash, pickle, bin decode) against immutable inputs: the frozen
//     pre-build context, and the already-completed dependency
//     environments. Bin bytes and interface pids depend on nothing
//     but the unit and its deps, so they are identical for every -j.
//   - Workers record counters into a private obs.Buffer; the committer
//     flushes each buffer in commit order, so the final Stats are the
//     sums the sequential build would have produced — speculative work
//     past a failed unit is discarded unflushed and leaves no trace.
//   - Unit execution runs on a second pool ordered by the import DAG
//     plus the §4j mutable-import rule (units whose imports reach a
//     ref or array run in commit order), against copy-on-write dynenv
//     views whose binds only the committer publishes.
//   - Explain records, log lines, store writes, dynenv publication,
//     and stdout replay all happen on the committer in topological
//     order.
//
// Error semantics: the first failure in *commit order* (the same unit
// the sequential build would have failed on) aborts the build. Units
// earlier in the order still commit; queued work is dropped; units
// already running drain cleanly before Build returns, so their spans
// stay inside the build span.
package core

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/depend"
	"repro/internal/dynenv"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
)

// unitTask is the immutable input of one worker invocation: everything
// a unit's compile-or-load decision needs, captured by the scheduler at
// dispatch time (when all dependencies have completed).
type unitTask struct {
	idx     int // position in topological order == commit order
	info    *depend.Info
	source  string
	entry   *Entry
	srcHash pid.Pid
	corrupt bool // the store flagged this unit's entry corrupt in phase 1

	depNames []string   // direct deps, sorted by name (the Entry contract)
	depPids  []pid.Pid  // their current interface pids, aligned with depNames
	depEnvs  []*env.Env // their export environments, in topological order

	depRecompiled bool // some direct dep was recompiled this build
	depAtRisk     bool // some dep (transitively, through loads) recompiled
}

// unitResult is a worker's output. Nothing in it has touched shared
// build state yet: the committer turns it into execution, store writes,
// counters, and the unit's explain record — or discards it entirely if
// the build fails on an earlier unit.
type unitResult struct {
	task   *unitTask
	unit   *compiler.Unit
	action string // obs.ActionLoaded or obs.ActionCompiled
	bin    []byte // encoded bin, when compiled
	exp    obs.Explain
	buf    *obs.Buffer
	uspan  *obs.Span
	logs   []string // per-unit log lines, replayed by the committer

	recompiled bool
	atRisk     bool
	err        error // compile/pickle failure; exp.Error is already set

	// taintKnown/tainted: the §4j mutable-import verdict, computed by
	// the scheduler goroutine once every dependency has executed. A
	// tainted unit's execution is serialized in commit order (counter
	// exec.serialized, emitted at commit so it is -j-invariant).
	taintKnown bool
	tainted    bool
}

// execDone is the output of one parallel unit execution. Like a
// unitResult, nothing in it has touched shared observable state: print
// output went to a private buffer, counters (exec.*, dynenv.*,
// interp.*) to a private obs.Buffer, and the dynenv binds it made went
// to the build's pending overlay (visible to dependent executions,
// which the exec DAG orders after this unit) plus the binds replay log
// — never to the session env. The committer replays stdout, flushes
// the buffer, and commits the binds in commit order, so a speculative
// execution past the failing unit leaves no trace in output, counters,
// Stats, or the session's dynamic environment.
type execDone struct {
	idx    int
	err    error
	stdout []byte
	buf    *obs.Buffer
	binds  []dynenv.Binding
	steps  uint64
	ns     int64
	// prof holds the execution's raw profile(s) when the build is
	// profiled (normally one UnitProfile; empty otherwise). Like
	// counters and binds, it is private until the committer merges it
	// in commit order — which is what makes the merged profile
	// independent of Jobs.
	prof []*interp.UnitProfile
}

// intHeap is a min-heap of topo indexes: the ready queue dispatches
// lowest-index-first so that -j1 processes units in exactly the legacy
// sequential order.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// frozenIndex builds the stamp index over the session's pre-build
// context (basis + prelude): the frozen parent that every worker's
// private rehydration overlay falls back to. It is never mutated once
// workers start.
func frozenIndex(ctxEnv *env.Env) *pickle.Index {
	var layers []*env.Env
	for e := ctxEnv; e != nil; e = e.Parent() {
		layers = append(layers, e)
	}
	ix := pickle.NewIndex()
	for i := len(layers) - 1; i >= 0; i-- {
		ix.AddEnv(layers[i])
	}
	return ix
}

// jobs resolves the worker count: Manager.Jobs when positive, else
// GOMAXPROCS, clamped to the number of units.
func (m *Manager) jobs(units int) int {
	j := m.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > units {
		j = units
	}
	if j < 1 {
		j = 1
	}
	return j
}

// schedule runs Phase 3 of a build: compile or load every unit of the
// topological order on a worker pool, committing results in order.
func (m *Manager) schedule(col *obs.Collector, gen int, bspan *obs.Span,
	session *compiler.Session, order []*depend.Info, deps map[string][]string,
	sources map[string]string, srcHashes map[string]pid.Pid,
	entries map[string]*Entry, corrupt map[string]bool) error {

	n := len(order)
	if n == 0 {
		return nil
	}
	jobs := m.jobs(n)
	bspan.Arg("jobs", jobs)

	// Frozen shared inputs. Workers read these concurrently; nothing
	// mutates them until every worker has drained.
	baseCtx := session.Context
	baseIx := frozenIndex(baseCtx)

	idxOf := make(map[string]int, n)
	for i, info := range order {
		idxOf[info.Name] = i
	}
	waiting := make([]int, n)      // unresolved direct deps per unit
	dependents := make([][]int, n) // reverse edges
	for i, info := range order {
		for _, d := range deps[info.Name] {
			j := idxOf[d]
			dependents[j] = append(dependents[j], i)
			waiting[i]++
		}
	}

	// Cross-unit decision state, owned by the scheduler goroutine: a
	// unit's pids/recompiled/atRisk are published here when its worker
	// finishes, and read when a dependent is dispatched.
	currentPids := make(map[string]pid.Pid, n)
	recompiled := make(map[string]bool, n)
	atRisk := make(map[string]bool, n)
	envs := make([]*env.Env, n)
	results := make([]*unitResult, n)

	ctx, cancel := context.WithCancel(context.Background())
	dispatchCh := make(chan *unitTask, n)
	resultCh := make(chan *unitResult, n)
	var wg sync.WaitGroup
	var inflight, maxPar atomic.Int64
	for w := 0; w < jobs; w++ {
		lane := w + 1 // lane 0 is the committer/coordinator track
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// build.sched.wait_ns is worker idle time: how long this
				// worker blocked waiting for the scheduler to hand it a
				// task. Each worker's idle intervals are disjoint, so the
				// sum over all workers is bounded by jobs × wall (the
				// invariant TestSchedWaitBound pins); the final wait that
				// ends with the channel closing is shutdown, not
				// scheduling, and is not counted.
				idle0 := time.Now()
				t, ok := <-dispatchCh
				if !ok {
					return
				}
				col.Add("build.sched.wait_ns", int64(time.Since(idle0)))
				if ctx.Err() != nil {
					// The build already failed: drop queued work. Units
					// already past this check drain to completion.
					continue
				}
				cur := inflight.Add(1)
				for {
					mx := maxPar.Load()
					if cur <= mx || maxPar.CompareAndSwap(mx, cur) {
						break
					}
				}
				resultCh <- m.runUnit(t, lane, gen, bspan, baseCtx, baseIx)
				inflight.Add(-1)
			}
		}()
	}

	// The exec pool: unit execution, historically serialized on the
	// committer, runs here the moment a unit's own compile-or-load and
	// every direct dependency's execution have succeeded — the import
	// DAG is the ordering a unit's *data* needs, and the §4j mutable-
	// import rule below adds the ordering shared mutable state needs.
	// Each execution runs on a fork of the session machine with private
	// stdout and counters, against a copy-on-write view of the dynenv
	// (binds land in the build's pending overlay, committed — or, past
	// a failure, discarded — in commit order), on its own span lane
	// (jobs+1..2·jobs).
	mtpl := session.Machine.Fork()
	pending := dynenv.New()
	execCh := make(chan *unitResult, n)
	execResCh := make(chan *execDone, n)
	var ewg sync.WaitGroup
	var einflight, emaxPar atomic.Int64
	for w := 0; w < jobs; w++ {
		lane := jobs + 1 + w
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			for res := range execCh {
				if ctx.Err() != nil {
					continue
				}
				cur := einflight.Add(1)
				for {
					mx := emaxPar.Load()
					if cur <= mx || emaxPar.CompareAndSwap(mx, cur) {
						break
					}
				}
				execResCh <- runExec(res, mtpl, session.Dyn, pending, lane)
				einflight.Add(-1)
			}
		}()
	}

	commitIdx := 0
	defer func() {
		cancel()
		close(dispatchCh)
		wg.Wait()
		close(execCh)
		ewg.Wait()
		// On a fatal abort, in-flight workers drained results that will
		// never commit; their unit spans would otherwise stay open and
		// export as still-running to the trace's end. Close every
		// uncommitted span here so a failing build's -trace/-jsonl
		// output is as well-formed as a passing one (their buffered
		// counters are still discarded unflushed). Exec results need no
		// span care — each execution's spans end inside ExecuteOn.
		for drained := false; !drained; {
			select {
			case res := <-resultCh:
				results[res.task.idx] = res
			default:
				drained = true
			}
		}
		for i := commitIdx; i < n; i++ {
			if results[i] != nil {
				results[i].uspan.End()
			}
		}
		col.Add("build.parallelism.max", maxPar.Load())
		col.Add("exec.parallelism.max", emaxPar.Load())
	}()

	dispatch := func(i int) {
		info := order[i]
		name := info.Name
		depNames := append([]string(nil), deps[name]...)
		sort.Strings(depNames)
		depPids := make([]pid.Pid, len(depNames))
		depRecompiled, depAtRisk := false, false
		for k, d := range depNames {
			depPids[k] = currentPids[d]
			if recompiled[d] {
				depRecompiled = true
			}
			if recompiled[d] || atRisk[d] {
				depAtRisk = true
			}
		}
		depIdx := make([]int, 0, len(depNames))
		for _, d := range depNames {
			depIdx = append(depIdx, idxOf[d])
		}
		sort.Ints(depIdx)
		depEnvs := make([]*env.Env, len(depIdx))
		for k, j := range depIdx {
			depEnvs[k] = envs[j]
		}
		dispatchCh <- &unitTask{
			idx: i, info: info, source: sources[name],
			entry: entries[name], srcHash: srcHashes[name], corrupt: corrupt[name],
			depNames: depNames, depPids: depPids, depEnvs: depEnvs,
			depRecompiled: depRecompiled, depAtRisk: depAtRisk,
		}
	}

	ready := &intHeap{}
	for i := 0; i < n; i++ {
		if waiting[i] == 0 {
			heap.Push(ready, i)
		}
	}

	// Exec-stage DAG state: a unit executes once its own worker result
	// is in (compile/load ok) and every direct dep has executed. Import
	// values only ever come from direct deps (depend.Analyze edges every
	// unit to the definers of its free names), so direct-dep exec
	// ordering is the data dependency execution needs — for immutable
	// values.
	execWaiting := make([]int, n)
	for i, info := range order {
		execWaiting[i] = len(deps[info.Name])
	}
	execResults := make([]*execDone, n)
	execLaunched := make([]bool, n)

	// The mutable-import rule (DESIGN.md §4j): a ref or array exported
	// by a common ancestor is shared mutable state two units with no
	// path between them can both read and write, so their executions
	// must happen in commit order — for memory safety (assign/aupdate
	// are unsynchronized) and because the interleaving is observable. A
	// unit is *tainted* when any of its import values can reach a
	// mutable cell. Every reader or writer of cross-unit mutable state
	// is tainted — a cell created elsewhere is only reachable through
	// the import vector — so serializing each tainted unit after all
	// earlier executions reproduces the sequential interleaving
	// exactly, while pure units (the overwhelmingly common case) keep
	// the full exec-DAG parallelism. The scan (one interp.MutScanner for
	// the whole build, so structure shared between imports is walked
	// once) stops at the first cell without reading through it, so it
	// races with no concurrent execution; its verdict is immutable, so
	// it is also memoized per pid. Taint is a function of the value
	// graphs alone, never of scheduling, so the serialization decision
	// — and the exec.serialized counter the committer emits for it — is
	// deterministic across -j.
	mutByPid := make(map[pid.Pid]bool)
	var mutScan interp.MutScanner
	reachesMut := func(p pid.Pid) bool {
		if t, ok := mutByPid[p]; ok {
			return t
		}
		v, ok := pending.Peek(p)
		if !ok {
			v, ok = session.Dyn.Peek(p)
		}
		t := ok && mutScan.ReachesMutable(v)
		mutByPid[p] = t
		return t
	}
	// execPrefix is the length of the fully-executed prefix of the
	// commit order; a tainted unit launches only at the prefix boundary
	// (every earlier unit has executed — so every earlier tainted unit
	// has finished, and every later one waits for it in turn).
	// execBlocked holds tainted units parked until then.
	execPrefix := 0
	execBlocked := &intHeap{}
	execParked := make([]bool, n)

	// The first failure in commit order is where the sequential build
	// would have stopped; nothing past it is dispatched once known.
	failIdx := n
	execReady := func(i int) bool {
		return !execLaunched[i] && i <= failIdx && results[i] != nil &&
			results[i].err == nil && execWaiting[i] == 0
	}
	tryExec := func(i int) {
		if !execReady(i) {
			return
		}
		res := results[i]
		if !res.taintKnown {
			// Deps have all executed (execWaiting is 0), so every
			// import value is present in the pending overlay or the
			// session env.
			res.taintKnown = true
			for _, p := range res.unit.Imports {
				if reachesMut(p) {
					res.tainted = true
					break
				}
			}
		}
		if res.tainted && execPrefix < i {
			if !execParked[i] {
				execParked[i] = true
				heap.Push(execBlocked, i)
			}
			return
		}
		execLaunched[i] = true
		execCh <- res
	}
	for commitIdx < n {
		for ready.Len() > 0 {
			i := heap.Pop(ready).(int)
			if i > failIdx {
				continue
			}
			dispatch(i)
		}
		for commitIdx < n {
			res := results[commitIdx]
			if res == nil {
				break
			}
			if res.err == nil && execResults[commitIdx] == nil {
				break // compiled/loaded but not yet executed
			}
			if err := m.commitUnit(res, execResults[commitIdx], col, session); err != nil {
				return err
			}
			commitIdx++
		}
		if commitIdx >= n {
			break
		}
		select {
		case res := <-resultCh:
			i := res.task.idx
			results[i] = res
			if res.err != nil {
				if i < failIdx {
					failIdx = i
				}
			} else {
				name := res.task.info.Name
				envs[i] = res.unit.Env
				currentPids[name] = res.unit.StatPid
				recompiled[name] = res.recompiled
				atRisk[name] = res.atRisk
				for _, d := range dependents[i] {
					waiting[d]--
					if waiting[d] == 0 {
						heap.Push(ready, d)
					}
				}
				tryExec(i)
			}
		case ed := <-execResCh:
			i := ed.idx
			execResults[i] = ed
			for execPrefix < n && execResults[execPrefix] != nil {
				execPrefix++
			}
			if ed.err != nil {
				if i < failIdx {
					failIdx = i
				}
			} else {
				for _, d := range dependents[i] {
					execWaiting[d]--
					tryExec(d)
				}
			}
			// The prefix advanced: any parked tainted unit at its
			// boundary may now run (tryExec re-checks readiness, so a
			// unit parked past a newly-discovered failure stays dead).
			for execBlocked.Len() > 0 && (*execBlocked)[0] <= execPrefix {
				tryExec(heap.Pop(execBlocked).(int))
			}
		}
	}
	return nil
}

// runExec executes one unit on an exec worker: a fork of the session
// machine (shared basis tags, private stdout/steps, a per-unit step
// budget — MaxSteps bounds each execution; the committer enforces the
// cumulative session budget at commit, §4j), a copy-on-write view of
// the dynenv that binds into the build's pending overlay and records
// into the task's private buffer, and the execute span on this
// worker's lane under the unit's span. The returned execDone carries
// everything observable — stdout, counters, export binds — for
// commit-order replay.
func runExec(res *unitResult, mtpl *interp.Machine, dyn, pending *dynenv.Env, lane int) *execDone {
	buf := obs.NewBuffer()
	var out bytes.Buffer
	fork := mtpl.Fork()
	fork.Stdout = &out
	fork.Obs = buf
	view := dyn.View(pending, buf)
	t0 := time.Now()
	err := compiler.ExecuteOn(fork, res.unit, view, res.uspan, buf, lane)
	return &execDone{
		idx:    res.task.idx,
		err:    err,
		stdout: out.Bytes(),
		buf:    buf,
		binds:  view.Binds(),
		steps:  fork.Steps,
		ns:     int64(time.Since(t0)),
		prof:   fork.TakeUnitProfiles(),
	}
}

// runUnit is the worker half of one unit's turn: decide reuse, then
// rehydrate the cached bin or compile from source. It touches no shared
// mutable state — counters go to a private buffer, diagnostics into the
// result — so any number of runUnit calls may overlap.
func (m *Manager) runUnit(t *unitTask, lane, gen int, bspan *obs.Span,
	baseCtx *env.Env, baseIx *pickle.Index) *unitResult {

	name := t.info.Name
	buf := obs.NewBuffer()
	res := &unitResult{task: t, buf: buf}
	exp := obs.Explain{Build: gen, Unit: name, Policy: m.Policy.String()}
	if t.entry != nil {
		exp.OldPid = t.entry.StatPid.String()
	}
	srcOK := t.entry != nil && t.entry.SrcHash == t.srcHash
	exp.SourceChanged = t.entry != nil && !srcOK
	depsOK := t.entry != nil && pidsEqual(t.entry.DepPids, t.depPids) &&
		namesEqual(t.entry.DepNames, t.depNames)
	var reuse bool
	switch m.Policy {
	case PolicyCutoff:
		reuse = srcOK && depsOK
	case PolicyTimestamp:
		reuse = srcOK && !t.depRecompiled
	}
	reuse = reuse && t.entry != nil && len(t.entry.Bin) > 0

	uspan := bspan.Child(obs.CatUnit, name).Lane(lane)
	res.uspan = uspan
	binUnreadable := false
	if reuse {
		lspan := uspan.Child(obs.CatPhase, "load")
		// Rehydrate against a private overlay: the frozen base plus
		// this unit's dependency environments, never the (mutable)
		// session index. The process-wide EnvCache sits in front of the
		// decode: a warm interface pid skips the env segment entirely.
		ix := pickle.NewOverlay(baseIx)
		for _, de := range t.depEnvs {
			ix.AddEnv(de)
		}
		u, err := binfile.ReadCachedObserved(t.entry.Bin, ix, m.envCache(), buf)
		lspan.End()
		buf.Add("time.load_ns", int64(lspan.Duration()))
		if err == nil {
			res.unit = u
			res.action = obs.ActionLoaded
			res.atRisk = t.depAtRisk
			exp.Action = obs.ActionLoaded
			exp.NewPid = u.StatPid.String()
			exp.Reason = obs.ReasonCached
			res.exp = exp
			return res
		}
		// The entry passed store validation but its bin failed to
		// rehydrate — corruption caught by the inner format layer.
		buf.Add("cache.corrupt", 1)
		binUnreadable = true
		if m.Log != nil {
			res.logs = append(res.logs, fmt.Sprintf(
				"[%s] %s: bin reload failed (%v); recompiling", m.Policy, name, err))
		}
	}

	// Recompile, with the decision spelled out (most specific reason
	// wins; see the obs.Reason* precedence order).
	exp.Action = obs.ActionCompiled
	switch {
	case binUnreadable:
		exp.Reason = obs.ReasonBinUnreadable
	case t.corrupt:
		exp.Reason = obs.ReasonCorrupt
	case t.entry == nil:
		exp.Reason = obs.ReasonCold
	case !srcOK:
		exp.Reason = obs.ReasonSourceChanged
	case m.Policy == PolicyCutoff && !depsOK:
		exp.Reason = obs.ReasonDepInterfaceChanged
		exp.ChangedDeps = depChanges(t.entry, t.depNames, t.depPids)
	case m.Policy == PolicyTimestamp && t.depRecompiled:
		exp.Reason = obs.ReasonDepRecompiled
	default:
		exp.Reason = obs.ReasonBinMissing
	}

	// The compile context is this unit's own: the frozen pre-build
	// context plus one layer holding the dependency exports, merged in
	// topological order (later definers shadow, as in the sequential
	// context chain). See DESIGN.md §4e for the equivalence argument.
	layer := env.New(baseCtx)
	for _, de := range t.depEnvs {
		de.CopyInto(layer)
	}
	// The scan phase parsed every changed source (depend.Info.Decs);
	// only a recompile of an unchanged source, whose info came from the
	// cache, parses here.
	cspan := uspan.Child(obs.CatPhase, "compile")
	var u *compiler.Unit
	var err error
	if t.info.Decs != nil {
		u, err = compiler.CompileDecs(name, t.info.Decs, layer)
	} else {
		u, err = compiler.Compile(name, t.source, layer)
	}
	cspan.End()
	buf.Add("time.compile_ns", int64(cspan.Duration()))
	if err != nil {
		exp.Error = err.Error()
		res.exp = exp
		res.err = err
		return res
	}
	buf.Add("build.compiled", 1)
	// Closure-compilation accounting (the compiled exec engine's
	// codegen, DESIGN.md §4j): every fresh compile produced a compiled
	// form and its bin-file code section.
	buf.Add("code.compiles", 1)
	buf.Add("code.compile_ns", int64(u.CodeTime))
	buf.Add("code.bytes", int64(len(u.CodeBytes)))
	exp.NewPid = u.StatPid.String()
	if t.corrupt || binUnreadable {
		// The unit's cache entry was corrupt and the rebuild
		// succeeded: the store healed itself by recompilation.
		buf.Add("cache.recovered", 1)
	}

	// Attribute the hashing cost separately (E3's measurement). The
	// fused compile pipeline timed its own hash+pickle traversal, so
	// the attribution is exact and costs no extra walk.
	buf.Add("time.hash_ns", int64(u.HashTime))

	if t.entry != nil && t.entry.StatPid == u.StatPid {
		buf.Add("build.cutoffs", 1)
		exp.Cutoff = true
		if m.Log != nil {
			res.logs = append(res.logs, fmt.Sprintf(
				"[%s] %s: recompiled, interface UNCHANGED (%s) — dependents cut off",
				m.Policy, name, u.StatPid.Short()))
		}
	} else if m.Log != nil {
		res.logs = append(res.logs, fmt.Sprintf(
			"[%s] %s: recompiled, interface %s", m.Policy, name, u.StatPid.Short()))
	}

	pkspan := uspan.Child(obs.CatPhase, "pickle")
	bin, err := binfile.EncodeObserved(u, buf)
	pkspan.End()
	buf.Add("time.pickle_ns", int64(pkspan.Duration()))
	if err != nil {
		exp.Error = err.Error()
		res.exp = exp
		res.err = fmt.Errorf("%s: %v", name, err)
		return res
	}

	res.unit = u
	res.action = obs.ActionCompiled
	res.bin = bin
	res.recompiled = true
	res.exp = exp
	return res
}

// commitUnit is the sequential half of one unit's turn, applied in
// topological order: flush the worker's counters, replay its log lines,
// replay the unit's execution (stdout, counters, steps — the execution
// itself already ran on the exec pool), extend the session, save the
// bin, and file the unit's explain record — observably exactly what
// the legacy execute-on-commit loop produced.
func (m *Manager) commitUnit(res *unitResult, ed *execDone, col *obs.Collector,
	session *compiler.Session) error {

	t := res.task
	name := t.info.Name
	exp := res.exp
	uspan := res.uspan
	res.buf.FlushTo(col)
	for _, line := range res.logs {
		m.logf("%s", line)
	}
	if res.err != nil {
		col.Explain(exp)
		uspan.End()
		return res.err
	}

	// Replay the execution in commit order: the exec.*, dynenv.*, and
	// interp.* counters from the execution's private buffer, its print
	// output, its step count, and its export binds land here exactly as
	// the sequential execute-on-commit produced them — a failing
	// execution first replays what it observed before failing, like a
	// sequential run that printed then raised, and binds nothing. (The
	// execute span and its sub-phases were created live on the exec
	// worker's lane, nested under the unit span, and are already
	// ended.)
	ed.buf.FlushTo(col)
	// Merge the execution's profile in commit order — the same
	// ordering discipline as counters and stdout, so the merged
	// profile (like them) is a pure function of the program, not of
	// the schedule. A failing unit's partial profile merges too,
	// exactly as a sequential run would have accumulated it.
	if m.profB != nil {
		m.profB.AddUnit(name, res.unit.Code, res.unit.Env, t.source)
		for _, up := range ed.prof {
			m.profB.Add(up)
		}
	}
	if res.tainted {
		col.Add("exec.serialized", 1)
	}
	col.Add("time.exec_ns", ed.ns)
	session.Machine.Steps += ed.steps
	if len(ed.stdout) > 0 && session.Machine.Stdout != nil {
		session.Machine.Stdout.Write(ed.stdout)
	}
	if ed.err != nil {
		exp.Error = ed.err.Error()
		col.Explain(exp)
		uspan.End()
		return ed.err
	}
	// The session-wide step budget is enforced here, at unit
	// granularity: each parallel execution is individually bounded by
	// MaxSteps on its fork, and the unit whose steps push the session
	// total over the budget fails at its commit — the same unit a
	// sequential run would have died inside (§4j documents the
	// granularity difference).
	if ms := session.Machine.MaxSteps; ms != 0 && session.Machine.Steps > ms {
		err := fmt.Errorf("execute %s: step budget exceeded (session total %d > %d)",
			name, session.Machine.Steps, ms)
		exp.Error = err.Error()
		col.Explain(exp)
		uspan.End()
		return err
	}
	session.Dyn.Commit(ed.binds)
	session.Accept(res.unit)

	if res.action == obs.ActionLoaded {
		col.Add("build.loaded", 1)
		col.Add("build.executed", 1)
		// The cutoff rule's payoff, as data: something upstream
		// recompiled, yet this unit still loads from cache.
		exp.SavedByCutoff = m.Policy == PolicyCutoff && t.depAtRisk
		col.Explain(exp)
		uspan.Arg("action", obs.ActionLoaded).Arg("pid", res.unit.StatPid.Short())
		uspan.End()
		m.UnitTimings = append(m.UnitTimings, obs.UnitTiming{
			Unit: name, Action: obs.ActionLoaded, Ns: int64(uspan.Duration()),
			ExecNs: ed.ns, Steps: ed.steps})
		if m.Log != nil {
			m.logf("[%s] %s: loaded (interface %s)", m.Policy, name, res.unit.StatPid.Short())
		}
		return nil
	}

	col.Add("build.executed", 1)
	svspan := uspan.Child(obs.CatPhase, "save").Lane(0)
	serr := m.Store.Save(name, &Entry{
		SrcHash:  t.srcHash,
		StatPid:  res.unit.StatPid,
		DepNames: t.depNames,
		DepPids:  t.depPids,
		Defs:     t.info.Defs,
		Free:     t.info.Free,
		Bin:      res.bin,
	})
	svspan.End()
	if serr != nil {
		// A failed save (ENOSPC, permissions) costs only future
		// incrementality — the unit is already compiled, executed,
		// and in scope, so the build itself proceeds.
		col.Add("cache.save_errors", 1)
		exp.SaveError = serr.Error()
		m.logf("[%s] %s: saving bin failed (%v); continuing uncached",
			m.Policy, name, serr)
	}
	col.Explain(exp)
	uspan.Arg("action", obs.ActionCompiled).Arg("pid", res.unit.StatPid.Short())
	uspan.End()
	m.UnitTimings = append(m.UnitTimings, obs.UnitTiming{
		Unit: name, Action: obs.ActionCompiled, Ns: int64(uspan.Duration()),
		ExecNs: ed.ns, Steps: ed.steps})
	return nil
}
