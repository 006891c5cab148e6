// Package cli is the setup every command-line tool shares, so that irm,
// smlc, smlrun and smlrepl are thin clients of the build library the way
// the paper's Visible Compiler (§8) makes every tool a thin client of
// compile and execute:
//
//   - two flag groups, registered by name: the build group (-store
//     -policy -j -v -history) and the telemetry group (-trace -jsonl
//     -explain -report -serve -profile -profile-period);
//   - one constructor, Open, which validates every flag before its first
//     side effect and then opens the store, collector, core.Manager,
//     ledger and telemetry listener;
//   - one Flush, which writes a finished run's trace, JSONL, profile
//     files, explain records and report.
//
// Errors end the process: Fatal prints "<Name>: <err>" to stderr and
// exits 1, releasing a store lock Open holds.
//
// Concurrency: Flags and Setup belong to the command's main goroutine.
// The listener Open starts serves the collector and ledger, which are
// safe for concurrent use.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/obsserve"
	"repro/internal/prof"
	"repro/internal/watch"
)

// Name prefixes every error and announcement a command prints. Set it
// once in main.
var Name = "irm"

// Usage, when set, prints the usage text and exits: BadFlag calls it
// after the error. irm sets it to exit 2.
var Usage func()

// DefaultStore is irm's default -store directory.
const DefaultStore = ".irm-store"

// held releases the store lock Open holds, if any.
var held func()

// Fatal reports err and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", Name, err)
	if held != nil {
		held()
	}
	os.Exit(1)
}

// BadFlag reports an invalid flag value: it prints "<Name>: <err>",
// then calls Usage if set, and Fatal otherwise. err names the flag and
// the value.
func BadFlag(err error) {
	if Usage == nil {
		Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", Name, err)
	Usage()
}

// Flags holds the shared flags' values. Register binds the ones a
// command has, each defaulting to its field's value at that moment.
type Flags struct {
	// Build group.
	Store   string // -store: bin cache directory; "" keeps builds in memory
	Policy  string // -policy: cutoff or timestamp
	Jobs    int    // -j: parallel build workers
	Verbose bool   // -v: per-unit log on stderr
	History string // -history: ledger directory; "" beside the store, "off"

	// Telemetry group.
	Trace         string // -trace: Chrome trace_event file
	JSONL         string // -jsonl: spans, explains and counters file
	Explain       bool   // -explain: explain records on stderr
	Report        string // -report: summary format
	Serve         string // -serve: telemetry listen address
	Profile       string // -profile: profile file base name
	ProfilePeriod uint64 // -profile-period: sampling period in steps

	// ReportStderr marks a tool whose program output owns stdout:
	// -report takes json only and writes it to stderr.
	ReportStderr bool

	registered    map[string]bool
	reportDefault string
}

// New returns Flags with irm's defaults.
func New() *Flags { return &Flags{Store: DefaultStore, Policy: "cutoff"} }

// Register binds the named shared flags on fs. An unknown name panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	if f.registered == nil {
		f.registered = map[string]bool{}
	}
	for _, n := range names {
		f.registered[n] = true
		switch n {
		case "store":
			fs.StringVar(&f.Store, n, f.Store, "bin cache directory")
		case "policy":
			fs.StringVar(&f.Policy, n, f.Policy, "recompilation policy: cutoff or timestamp")
		case "j":
			fs.IntVar(&f.Jobs, n, f.Jobs, "parallel build workers (0 = one per core)")
		case "v":
			fs.BoolVar(&f.Verbose, n, f.Verbose, "log per-unit actions")
		case "history":
			fs.StringVar(&f.History, n, f.History, "ledger directory ('' = beside the store, 'off' = disabled)")
		case "trace":
			fs.StringVar(&f.Trace, n, f.Trace, "write Chrome trace_event JSON to this file")
		case "jsonl":
			fs.StringVar(&f.JSONL, n, f.JSONL, "write spans, explains, and counters as JSON lines to this file")
		case "explain":
			fs.BoolVar(&f.Explain, n, f.Explain, "stream one rebuild-decision JSON record per unit to stderr")
		case "report":
			f.reportDefault = f.Report
			usage := "summary format: text or json"
			if f.ReportStderr {
				usage = "with 'json', write a machine-readable report line to stderr"
			}
			fs.StringVar(&f.Report, n, f.Report, usage)
		case "serve":
			fs.StringVar(&f.Serve, n, f.Serve, "serve /metrics and /debug/pprof on this address while the command runs")
		case "profile":
			fs.StringVar(&f.Profile, n, f.Profile, "profile SML execution; write <base>.json, <base>.folded, <base>.pb")
		case "profile-period":
			fs.Uint64Var(&f.ProfilePeriod, n, f.ProfilePeriod, "sampling period in interpreter steps (0 = default)")
		default:
			panic("cli: unknown shared flag " + n)
		}
	}
}

// Validate checks every registered flag's value and exits through
// BadFlag on the first invalid one.
func (f *Flags) Validate() {
	if f.registered["policy"] {
		if _, err := core.ParsePolicy(f.Policy); err != nil {
			BadFlag(fmt.Errorf("-policy: %v", err))
		}
	}
	if r := f.Report; f.registered["report"] &&
		r != f.reportDefault && r != "json" && (r != "text" || f.ReportStderr) {
		want := "text or json"
		if f.ReportStderr {
			want = "json"
		}
		BadFlag(fmt.Errorf("-report: unknown format %q (want %s)", r, want))
	}
}

// ProfilePeriod resolves a sampling period flag: 0 means the default.
func ProfilePeriod(n uint64) uint64 {
	if n == 0 {
		return interp.DefaultProfilePeriod
	}
	return n
}

// Setup is what Open opened for one command run.
type Setup struct {
	*Flags
	DirStore *core.DirStore  // nil when Store is ""
	Col      *obs.Collector  // spans the Manager, the store and the lock path
	M        *core.Manager   // configured from the flags
	Ledger   *history.Ledger // nil unless -history is registered and not off
	liveProf *prof.Live      // the -profile profile, served under -serve
}

// Open validates every registered flag, then opens, in order: the store
// (holding its lock for the process when hold is set, with the Manager
// given an unlocked view), the ledger, and the -serve listener, whose
// /watch stream is hub. Any failure is fatal.
func (f *Flags) Open(hold bool, hub *watch.Hub) *Setup {
	f.Validate()
	pol, _ := core.ParsePolicy(f.Policy) // without -policy: the zero Policy, cutoff
	col := obs.New()
	s := &Setup{Flags: f, Col: col, M: &core.Manager{
		Policy: pol, Store: core.NewMemStore(), Stdout: os.Stdout, Obs: col, Jobs: f.Jobs,
	}}
	if f.Verbose {
		s.M.Log = os.Stderr
	}
	if f.Profile != "" {
		s.M.ProfilePeriod = ProfilePeriod(f.ProfilePeriod)
	}
	if f.Store != "" {
		store, err := core.NewDirStore(f.Store)
		if err != nil {
			Fatal(err)
		}
		store.Obs = col
		s.DirStore, s.M.Store = store, store
		if hold {
			release, err := store.Lock()
			if err != nil {
				Fatal(err)
			}
			held = release
			s.M.Store = core.Unlocked(store)
		}
	}
	if f.registered["history"] {
		s.Ledger = openLedger(f.History, f.Store)
	}
	if f.Serve != "" {
		srv := obsserve.New(col, s.Ledger)
		srv.Watch = hub
		if f.Profile != "" {
			s.liveProf = &prof.Live{}
			srv.Prof = s.liveProf
		}
		Listen(f.Serve, srv.Handler())
	}
	return s
}

// Close releases the store lock Open holds, if any.
func (s *Setup) Close() {
	if held != nil {
		held()
		held = nil
	}
}

// HistoryDir is the ledger directory beside a store: a sibling
// `.irm/history`, so every store gets its own ledger.
func HistoryDir(storeDir string) string {
	return filepath.Join(filepath.Dir(storeDir), ".irm", "history")
}

// openLedger resolves -history: "" derives from the store, "off"
// disables, anything else is the ledger directory itself.
func openLedger(historyFlag, storeDir string) *history.Ledger {
	if historyFlag == "off" {
		return nil
	}
	dir := historyFlag
	if dir == "" {
		dir = HistoryDir(storeDir)
	}
	l, err := history.Open(dir, nil)
	if err != nil {
		// The ledger is telemetry: a build must not fail because its
		// history cannot be written.
		fmt.Fprintf(os.Stderr, "%s: %v\n", Name, err)
		return nil
	}
	return l
}

// Record appends one build's summary to the ledger, if open. A
// profiled build's record also carries its hot-function table, so
// `irm top -by fn` can rank functions across builds.
func (s *Setup) Record(name string, wall time.Duration, buildErr error) {
	if s.Ledger == nil {
		return
	}
	rec := history.FromBuild(s.M, s.M.Report(name), wall, time.Now(), buildErr)
	if err := s.Ledger.Append(rec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", Name, err)
	}
}

// Flush writes a finished run's telemetry where the flags name it, in
// a fixed order: trace, JSONL, the profile p (labelled name), and the
// Manager's explain records. A non-nil err is then fatal: a trace or
// profile of a failing run is the one you want most. Otherwise, under
// -report json, report goes out as one JSON line.
func (s *Setup) Flush(name string, p *prof.Profile, report any, err error) {
	writeFile(s.Trace, s.Col.WriteTrace)
	writeFile(s.JSONL, s.Col.WriteJSONL)
	if s.Profile != "" && p != nil {
		if s.liveProf != nil {
			s.liveProf.Set(name, p)
		}
		if err := p.WriteFiles(s.Profile, name); err != nil {
			Fatal(err)
		}
	}
	if s.Explain && s.M != nil {
		if err := obs.WriteExplainJSONL(os.Stderr, s.M.Explains); err != nil {
			Fatal(err)
		}
	}
	if err != nil {
		Fatal(err)
	}
	if s.Report == "json" {
		w := os.Stdout
		if s.ReportStderr {
			w = os.Stderr
		}
		WriteJSON(w, report)
	}
}

// writeFile creates path, if set, and fills it with write.
func writeFile(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		Fatal(err)
	}
	if err := write(f); err != nil {
		Fatal(err)
	}
	if err := f.Close(); err != nil {
		Fatal(err)
	}
}

// WriteJSON marshals v onto a single line of w, keeping a
// machine-readable report greppable as "the last line" even when
// program output precedes it.
func WriteJSON(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		Fatal(err)
	}
	if _, err := w.Write(append(data, '\n')); err != nil {
		Fatal(err)
	}
}

// Listen binds addr, announces the resolved address on stderr
// (machine-parseable: "<Name>: listening on HOST:PORT"), and serves h
// in the background for the rest of the process.
func Listen(addr string, h http.Handler) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", Name, ln.Addr())
	go http.Serve(ln, h)
}

// GroupArg parses args with fs and returns the group file, which may
// come before the flags (Go's flag package stops at the first
// positional argument) or as the only argument after them; "" when
// absent.
func GroupArg(fs *flag.FlagSet, args []string) string {
	group := ""
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		group, args = args[0], args[1:]
	}
	fs.Parse(args)
	if group == "" && fs.NArg() == 1 {
		group = fs.Arg(0)
	}
	return group
}
