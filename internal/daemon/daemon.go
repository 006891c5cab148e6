// Package daemon is the persistent multi-client compile service of
// PROTOCOL.md: a long-running process that opens the store once, holds
// its advisory lock for the whole lifetime (the lock heartbeat keeps
// it fresh), keeps the process-wide pickle.EnvCache warm across
// requests, and serves typed build/compile requests to any number of
// concurrent clients over a unix socket (plus an optional TCP address
// for scrapers). The HTTP mux is grown from internal/obsserve: every
// path that is not /v1/* falls through to the telemetry server, so
// /metrics, /healthz, /builds, and /debug/pprof work against a daemon
// exactly as against `irm serve`.
//
// Three properties make many clients over one store safe and fast:
//
//   - Admission control: requests enter a bounded FIFO queue and one
//     worker executes them strictly in admission order. A full queue
//     answers 503 queue_full immediately instead of stacking latency.
//   - Request coalescing: a request whose fingerprint (request
//     identity + unit names + source hashes + policy; see protocol.go)
//     matches a queued or running request attaches to it as a follower
//     — N clients asking for the same group at the same pids cost
//     exactly one build, and followers replay the leader's output,
//     explains, and report.
//   - Graceful drain: SIGTERM (or POST /v1/drain) stops admission
//     (new requests get 503 draining), finishes every admitted
//     request, then releases the lock and removes the socket. Because
//     execution is serialized and each build is an ordinary
//     Manager.Build over a snapshot of the sources, the store after a
//     drain is byte-identical to running the same builds sequentially
//     without a daemon.
//
// Session isolation: every admitted request gets a fresh session id,
// and every build or compile runs in a fresh compiler.Session — no
// dynamic environment, stamp index, or program output ever leaks
// between clients. Coalesced followers share, by construction, the
// leader's session output: that is what "the same build" means.
//
// Concurrency: HTTP handlers run on arbitrary server goroutines; all
// shared state (queue, inflight map, counters snapshot) sits behind
// Server.mu. Exactly one worker goroutine executes builds, so the
// Manager, its collector's per-build deltas, and the store's write
// path see the same single-writer discipline as a CLI build; the
// DirStore's own contract covers the ledger and lock paths. Follower
// handlers only read a call's result after its done channel closes.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/prof"
)

// DefaultMaxQueue bounds the admission queue when Options.MaxQueue is
// zero: the daemon holds at most this many admitted-but-not-started
// requests before answering 503 queue_full.
const DefaultMaxQueue = 64

// Options configures a Server.
type Options struct {
	// Store is the daemon's bin store. The caller must already hold
	// its lock (store.Lock()) for the daemon's lifetime; the server is
	// handed an Unlocked view internally so per-build re-acquisition
	// cannot self-deadlock.
	Store *core.DirStore
	// StoreDir is the store's path, reported by /v1/status.
	StoreDir string
	// Col is the daemon-wide collector; /metrics serves it. Required.
	Col *obs.Collector
	// Ledger, when non-nil, receives one record per executed build
	// (coalesced followers do not append — one build, one record).
	Ledger *history.Ledger
	// Policy and Jobs are the defaults for requests that leave them
	// unset.
	Policy core.Policy
	Jobs   int
	// MaxQueue bounds the admission queue (0 = DefaultMaxQueue).
	MaxQueue int
	// ProfilePeriod, when non-zero, turns on SML-level execution
	// profiling for every build the daemon executes: one sample per
	// ProfilePeriod interpreter steps. The latest build's profile is
	// served on /debug/sml/profile and its hot-function table rides
	// the ledger record. Profiling perturbs no build output.
	ProfilePeriod uint64
	// Log, when non-nil, receives one line per admitted request and
	// per executed build.
	Log io.Writer
	// BeforeWork, when non-nil, is called by the worker after a call
	// is dequeued and before it executes — a test hook that makes
	// coalescing and drain windows deterministic.
	BeforeWork func()
}

// Server is the daemon: an HTTP handler plus the single worker that
// executes admitted requests.
type Server struct {
	opts     Options
	m        *core.Manager
	obssrv   *obsserve.Server
	liveProf *prof.Live // non-nil iff Options.ProfilePeriod > 0
	start    time.Time

	mu       sync.Mutex
	queue    []*call          // admitted, not yet executing, FIFO
	inflight map[string]*call // fingerprint -> queued or running call
	running  *call
	draining bool
	sessions int64
	reqs     int64
	builds   int64
	compiles int64
	coal     int64

	work    chan struct{} // rung when the queue grows or drain starts
	stopped chan struct{} // closed when the worker exits (drained)
}

// call is one unit of admitted work: a build or compile request, the
// followers coalesced onto it, and — once executed — its result.
type call struct {
	fp      string
	kind    string // "build" or "compile"
	session int64
	name    string // group path or "compile"
	policy  core.Policy
	jobs    int
	files   []core.File // source snapshot taken at admission
	order   []string    // compile only: unit names in request order
	admit   time.Time

	done chan struct{} // closed when result is valid

	// outMu guards output and outDone; outCond is signalled on every
	// append and when the worker finishes producing output. The leader's
	// pump goroutine (streamLive) waits on it, so the worker never does
	// network I/O: a stalled leader connection can delay its own stream
	// but never the build or the queue behind it.
	outMu   sync.Mutex
	outCond *sync.Cond
	output  bytes.Buffer
	outDone bool

	// Result, valid after done closes.
	report   obs.Report
	explains []obs.Explain
	compiled []CompiledUnit
	errCode  string
	errMsg   string
}

// New assembles a server over an already-locked store. Call Start to
// launch the worker, Handler for the mux, and Drain to shut down.
func New(opts Options) *Server {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.Col == nil {
		opts.Col = obs.New()
	}
	s := &Server{
		opts:     opts,
		start:    time.Now(),
		inflight: map[string]*call{},
		work:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	s.m = &core.Manager{
		Policy:        opts.Policy,
		Store:         core.Unlocked(opts.Store),
		Stdout:        io.Discard,
		Obs:           opts.Col,
		Jobs:          opts.Jobs,
		ProfilePeriod: opts.ProfilePeriod,
	}
	s.obssrv = obsserve.New(opts.Col, opts.Ledger)
	if opts.ProfilePeriod > 0 {
		s.liveProf = &prof.Live{}
		s.obssrv.Prof = s.liveProf
	}
	// Register the daemon counter families at zero so a scrape sees
	// them before the first request — promcheck -require in CI depends
	// on stable families, not on traffic having happened.
	for _, c := range []string{
		"daemon.requests", "daemon.builds", "daemon.compiles",
		"daemon.coalesced", "daemon.queue_full", "daemon.drain_rejects",
		"daemon.queue_wait_ns", "daemon.output_bytes",
	} {
		opts.Col.Add(c, 0)
	}
	return s
}

// Start launches the worker goroutine that executes admitted calls.
func (s *Server) Start() {
	go s.worker()
}

// Handler returns the daemon mux: the /v1/* protocol endpoints, with
// everything else falling through to the obsserve telemetry mux
// (/metrics, /healthz, /builds, /watch, /debug/pprof/...).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/build", s.handleBuild)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.Handle("/", s.obssrv.Handler())
	return mux
}

// Drain stops admission and blocks until every admitted request has
// executed and the worker has exited. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ring()
	<-s.stopped
}

// Done returns a channel that is closed once the daemon has fully
// drained (the worker exited). The process owner selects on it
// alongside its signal channel so a client-initiated POST /v1/drain
// runs the same teardown — close the listener, remove the socket,
// release the store lock, exit 0 — as a SIGTERM drain (PROTOCOL.md
// §8 step 3).
func (s *Server) Done() <-chan struct{} { return s.stopped }

// Status snapshots the daemon's state.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	inflight := 0
	if s.running != nil {
		inflight = 1
	}
	return Status{
		Schema:        Schema,
		Pid:           os.Getpid(),
		Store:         s.opts.StoreDir,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.reqs,
		Builds:        s.builds,
		Compiles:      s.compiles,
		Coalesced:     s.coal,
		Inflight:      inflight,
		Queued:        len(s.queue),
		QueueCap:      s.opts.MaxQueue,
		Draining:      s.draining,
		Sessions:      s.sessions,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, format+"\n", args...)
	}
}

// httpError answers a non-2xx response with the protocol's JSON error
// body.
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorInfo{Code: code, Message: msg}})
}

// checkSchema validates a request's schema field: empty is rejected,
// and any irm-daemon version other than ours is a version mismatch
// (409), telling the client to fall back to an in-process build.
func checkSchema(w http.ResponseWriter, schema string) bool {
	switch schema {
	case Schema:
		return true
	case "":
		httpError(w, http.StatusBadRequest, CodeBadRequest, "missing schema field")
		return false
	default:
		httpError(w, http.StatusConflict, CodeVersionMismatch,
			fmt.Sprintf("daemon speaks %s, request says %s", Schema, schema))
		return false
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Status())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.logf("daemon: drain requested by %s", r.RemoteAddr)
	// Answer (and flush) before starting the drain: on an idle daemon
	// the worker exits almost immediately and the process owner tears
	// down on Done(), so the response must be on the wire first.
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]bool{"draining": true})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	go s.Drain()
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req BuildRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if !checkSchema(w, req.Schema) {
		return
	}
	policy := s.opts.Policy // an empty policy means the daemon's default
	if req.Policy != "" {
		p, err := core.ParsePolicy(req.Policy)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		policy = p
	}
	// Snapshot the sources now: the fingerprint and the build both use
	// this exact snapshot, which is what makes "same fingerprint ⇒
	// same build" sound even if a file changes while we are queued.
	group, err := core.LoadGroup(req.Group)
	if err != nil {
		httpError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	units := make([]SourceUnit, len(group.Files))
	for i, f := range group.Files {
		units[i] = SourceUnit{Name: f.Name, Source: f.Source}
	}
	jobs := req.Jobs
	if jobs <= 0 {
		jobs = s.opts.Jobs
	}
	c, session, leader := s.admit(&call{
		kind: "build",
		// The group path is part of the fingerprint: identical sources
		// under two different group files must not coalesce, or the
		// follower's report would carry the leader's group name.
		fp:     fingerprint("build", policy.String(), group.Name, units),
		name:   group.Name,
		policy: policy,
		jobs:   jobs,
		files:  group.Files,
	}, req.Client, w)
	if c == nil {
		return // admission rejected; response already written
	}

	fw := newFrameWriter(w)
	fw.frame(Frame{Type: FrameHello, Schema: Schema, Session: session, Coalesced: !leader})
	var liveDone <-chan struct{}
	if leader {
		// A pump goroutine streams output frames while the build runs;
		// the terminal frames are ours once done closes.
		liveDone = c.streamLive(fw)
	}
	select {
	case <-c.done:
	case <-r.Context().Done():
		// Client gone. The build is committed work and continues; just
		// stop streaming to this connection.
		if leader {
			fw.detach()
		}
		return
	}
	if leader {
		// Wait for the pump to flush the last output chunk so the
		// terminal frames keep PROTOCOL.md §5's frame order.
		<-liveDone
	} else {
		// Followers replay the leader's buffered output after the fact.
		if out := c.outputString(); out != "" {
			fw.frame(Frame{Type: FrameOutput, Data: out})
		}
	}
	if req.Explain {
		for i := range c.explains {
			fw.frame(Frame{Type: FrameExplain, Explain: &c.explains[i]})
		}
	}
	if c.errCode != "" {
		fw.frame(Frame{Type: FrameError, Code: c.errCode, Message: c.errMsg})
		return
	}
	rep := c.report
	fw.frame(Frame{Type: FrameReport, Report: &rep})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if !checkSchema(w, req.Schema) {
		return
	}
	if len(req.Units) == 0 {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "no units")
		return
	}
	jobs := req.Jobs
	if jobs <= 0 {
		jobs = s.opts.Jobs
	}
	fresh := &call{
		kind:   "compile",
		name:   "compile",
		policy: core.PolicyCutoff,
		jobs:   jobs,
	}
	for _, u := range req.Units {
		fresh.files = append(fresh.files, core.File{Name: u.Name, Source: u.Source})
		fresh.order = append(fresh.order, u.Name)
	}
	// The request's unit order is part of the fingerprint: /v1/compile
	// answers units in request order, so two requests for the same
	// sources in different orders need responses of their own.
	fresh.fp = fingerprint("compile", core.PolicyCutoff.String(),
		strings.Join(fresh.order, "\x00"), req.Units)
	c, _, _ := s.admit(fresh, req.Client, w)
	if c == nil {
		return
	}
	select {
	case <-c.done:
	case <-r.Context().Done():
		return
	}
	if c.errCode != "" {
		status := http.StatusUnprocessableEntity
		if c.errCode == CodeInternal {
			status = http.StatusInternalServerError
		}
		httpError(w, status, c.errCode, c.errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CompileResponse{
		Schema: Schema, Units: c.compiled, Report: c.report,
	})
}

// admit runs admission control for fresh: coalesce onto an in-flight
// call with the same fingerprint and kind, or enqueue fresh if the
// queue has room. It returns the call the request rides on (the prior
// one when coalesced), the request's own session id, and whether the
// request leads the call. On rejection it writes the 503 error body
// and returns a nil call.
func (s *Server) admit(fresh *call, client string, w http.ResponseWriter) (c *call, session int64, leader bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.opts.Col.Add("daemon.drain_rejects", 1)
		httpError(w, http.StatusServiceUnavailable, CodeDraining,
			"daemon is draining; run the build in-process")
		return nil, 0, false
	}
	if prior, ok := s.inflight[fresh.fp]; ok && prior.kind == fresh.kind {
		s.reqs++
		s.sessions++
		session = s.sessions
		s.coal++
		s.opts.Col.Add("daemon.requests", 1)
		s.opts.Col.Add("daemon.coalesced", 1)
		s.mu.Unlock()
		s.logf("daemon: request %d (%s) coalesced onto %s", session, client, prior.name)
		return prior, session, false
	}
	if len(s.queue) >= s.opts.MaxQueue {
		s.mu.Unlock()
		s.opts.Col.Add("daemon.queue_full", 1)
		httpError(w, http.StatusServiceUnavailable, CodeQueueFull,
			fmt.Sprintf("admission queue full (%d requests waiting)", s.opts.MaxQueue))
		return nil, 0, false
	}
	s.reqs++
	s.sessions++
	s.opts.Col.Add("daemon.requests", 1)
	fresh.session = s.sessions
	fresh.admit = time.Now()
	fresh.done = make(chan struct{})
	fresh.outCond = sync.NewCond(&fresh.outMu)
	s.queue = append(s.queue, fresh)
	s.inflight[fresh.fp] = fresh
	s.mu.Unlock()
	s.logf("daemon: request %d (%s) admitted: %s %s", fresh.session, client, fresh.kind, fresh.name)
	s.ring()
	return fresh, fresh.session, true
}

func (s *Server) ring() {
	select {
	case s.work <- struct{}{}:
	default:
	}
}

// worker executes admitted calls strictly in admission order, one at a
// time. It exits — closing stopped — when draining is set and the
// queue is empty.
func (s *Server) worker() {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
			<-s.work
			continue
		}
		c := s.queue[0]
		s.queue = s.queue[1:]
		s.running = c
		s.mu.Unlock()

		if s.opts.BeforeWork != nil {
			s.opts.BeforeWork()
		}
		s.opts.Col.Add("daemon.queue_wait_ns", int64(time.Since(c.admit)))
		s.execute(c)
		// The call has copied its report and explain records; nothing
		// exports the daemon's spans, so drop this call's.
		s.opts.Col.Prune()

		s.mu.Lock()
		s.running = nil
		delete(s.inflight, c.fp)
		s.mu.Unlock()
		// Output is complete: wake the leader's pump so it flushes the
		// tail and exits. Must precede close(done) — the leader handler
		// waits for the pump only after done closes.
		c.outMu.Lock()
		c.outDone = true
		c.outCond.Broadcast()
		c.outMu.Unlock()
		close(c.done)
	}
}

// execute runs one call on the daemon's warm Manager (builds) or on a
// throwaway capture store (compiles). It is only ever entered from the
// single worker goroutine.
func (s *Server) execute(c *call) {
	span := s.opts.Col.StartSpan(obs.CatBuild, "daemon."+c.kind).
		Arg("name", c.name).Arg("session", c.session)
	defer span.End()
	out := &teeOutput{col: s.opts.Col, c: c}
	switch c.kind {
	case "build":
		s.m.Policy = c.policy
		s.m.Jobs = c.jobs
		s.m.Stdout = out
		start := time.Now()
		_, buildErr := s.m.BuildUnder(span, c.files)
		wall := time.Since(start)
		s.m.Stdout = io.Discard
		c.report = s.m.Report(c.name)
		c.explains = c.report.Explain
		s.mu.Lock()
		s.builds++
		s.mu.Unlock()
		s.opts.Col.Add("daemon.builds", 1)
		if s.liveProf != nil && s.m.Prof != nil {
			s.liveProf.Set(c.name, s.m.Prof)
		}
		if s.opts.Ledger != nil {
			rec := history.FromBuild(s.m, c.report, wall, time.Now(), buildErr)
			if err := s.opts.Ledger.Append(rec); err != nil {
				s.logf("daemon: ledger: %v", err)
			}
		}
		if buildErr != nil {
			c.errCode, c.errMsg = CodeBuildFailed, buildErr.Error()
		}
		s.logf("daemon: build %s (session %d): %d units, %d compiled, %d loaded, %v",
			c.name, c.session, c.report.Units, c.report.Compiled, c.report.Loaded, wall)
	case "compile":
		cap := &captureStore{bins: map[string][]byte{}}
		// A fresh Manager per compile: nothing persists into the
		// daemon's store, but the shared collector (safe: the worker
		// serializes all execution) and the process-wide EnvCache still
		// apply.
		mc := &core.Manager{
			Policy: core.PolicyCutoff, Store: cap, Stdout: out,
			Obs: s.opts.Col, Jobs: c.jobs,
		}
		session, buildErr := mc.Build(c.files)
		c.report = mc.Report(c.name)
		c.explains = c.report.Explain
		s.mu.Lock()
		s.compiles++
		s.mu.Unlock()
		s.opts.Col.Add("daemon.compiles", 1)
		if buildErr != nil {
			c.errCode, c.errMsg = CodeBuildFailed, buildErr.Error()
			return
		}
		c.compiled = compiledUnits(session, cap, c.order)
	}
}

// compiledUnits projects a finished compile session onto the wire
// shape, in the request's unit order.
func compiledUnits(session *compiler.Session, cap *captureStore, order []string) []CompiledUnit {
	byName := map[string]*compiler.Unit{}
	for _, u := range session.Units {
		byName[u.Name] = u
	}
	var outUnits []CompiledUnit
	for _, name := range order {
		u, ok := byName[name]
		if !ok {
			continue
		}
		cu := CompiledUnit{
			Name:     u.Name,
			Pid:      u.StatPid.String(),
			PidShort: u.StatPid.Short(),
			Warnings: u.Warnings,
			Bin:      cap.bins[u.Name],
		}
		for _, im := range u.Imports {
			cu.Imports = append(cu.Imports, im.String())
		}
		outUnits = append(outUnits, cu)
	}
	return outUnits
}

// captureStore is the compile endpoint's Store: every Save is kept in
// memory for the response, Load always misses so every unit compiles
// fresh — the same semantics as smlc's bin-directory store.
type captureStore struct {
	mu   sync.Mutex
	bins map[string][]byte
}

func (s *captureStore) Load(name string) (*core.Entry, error) { return nil, nil }

func (s *captureStore) Save(name string, e *core.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bins[name] = append([]byte(nil), e.Bin...)
	return nil
}

// streamLive starts the leader's output pump: a goroutine that follows
// the call's output buffer and writes each new chunk as an output
// frame, including anything buffered before the handler got here (the
// worker may already have started). The returned channel closes when
// the worker has finished producing output and the pump has written
// (or, detached, discarded) all of it; the handler waits on it before
// the terminal frames so frame order holds. Because the pump — not the
// worker — does the blocking connection writes, a stalled leader
// client can never stall the build or the queue behind it.
func (c *call) streamLive(fw *frameWriter) <-chan struct{} {
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		sent := 0
		for {
			c.outMu.Lock()
			for c.output.Len() == sent && !c.outDone {
				c.outCond.Wait()
			}
			chunk := string(c.output.Bytes()[sent:])
			finished := c.outDone
			c.outMu.Unlock()
			if chunk != "" {
				fw.frame(Frame{Type: FrameOutput, Data: chunk})
				sent += len(chunk)
			}
			if finished {
				// outDone is set only after the last append, and chunk was
				// read under the same lock, so everything has been written.
				return
			}
		}
	}()
	return pumped
}

// outputString snapshots the buffered program output.
func (c *call) outputString() string {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	return c.output.String()
}

// teeOutput is the executing program's stdout: it buffers everything
// for followers and wakes the leader's pump, which streams the new
// chunk from its own goroutine. No network I/O happens on the worker.
type teeOutput struct {
	col *obs.Collector
	c   *call
}

func (t *teeOutput) Write(p []byte) (int, error) {
	t.col.Add("daemon.output_bytes", int64(len(p)))
	t.c.outMu.Lock()
	defer t.c.outMu.Unlock()
	t.c.output.Write(p)
	t.c.outCond.Broadcast()
	return len(p), nil
}

// frameWriter serializes NDJSON frames onto one HTTP response: the
// leader's pump goroutine (output frames) and the handler (hello +
// terminal frames) may interleave, and a detached writer (client gone)
// swallows writes so the pump drains instead of blocking on a dead
// connection.
type frameWriter struct {
	mu       sync.Mutex
	w        http.ResponseWriter
	flush    http.Flusher
	detached bool
}

func newFrameWriter(w http.ResponseWriter) *frameWriter {
	fw := &frameWriter{w: w}
	fw.flush, _ = w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return fw
}

func (fw *frameWriter) frame(f Frame) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.detached {
		return
	}
	data, err := json.Marshal(f)
	if err != nil {
		return
	}
	fw.w.Write(append(data, '\n'))
	if fw.flush != nil {
		fw.flush.Flush()
	}
}

func (fw *frameWriter) detach() {
	fw.mu.Lock()
	fw.detached = true
	fw.mu.Unlock()
}
