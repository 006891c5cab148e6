package obs

// Rebuild-decision reasons, the `reason` field of an Explain record.
// Exactly one reason is assigned per unit per build; when several
// apply, the most specific wins, in the precedence order corrupt >
// bin-unreadable > source-changed > dep-interface-changed /
// dep-recompiled > cold. A loaded unit's reason is always "cached".
const (
	// ReasonCached — the unit was rehydrated from its bin file: source
	// unchanged and (under cutoff) every imported interface pid
	// unchanged, or (under timestamp) no dependency recompiled.
	ReasonCached = "cached"
	// ReasonCold — no cache entry existed for the unit.
	ReasonCold = "cold"
	// ReasonSourceChanged — the unit's source hash differs from the
	// cached one.
	ReasonSourceChanged = "source-changed"
	// ReasonDepInterfaceChanged — cutoff policy: some imported
	// interface pid changed (the paper's cascade condition).
	ReasonDepInterfaceChanged = "dep-interface-changed"
	// ReasonDepRecompiled — timestamp policy: a dependency was
	// recompiled, interface-preserving or not (classical make).
	ReasonDepRecompiled = "dep-recompiled"
	// ReasonCorrupt — the cache entry existed but failed validation
	// and was quarantined.
	ReasonCorrupt = "corrupt"
	// ReasonBinUnreadable — the entry passed store validation but its
	// bin failed to rehydrate: it is damaged (counted corrupt), or a
	// previous version wrote it in a retired bin format (not counted
	// corrupt).
	ReasonBinUnreadable = "bin-unreadable"
	// ReasonBinMissing — the entry exists but carries no bin to load.
	ReasonBinMissing = "bin-missing"
)

// Explain record actions.
const (
	ActionLoaded   = "loaded"
	ActionCompiled = "compiled"
)

// DepChange names one import whose interface pid differs from the one
// the cached entry was compiled against.
type DepChange struct {
	Name   string `json:"name"`
	OldPid string `json:"old_pid"` // "" when the dependency is new
	NewPid string `json:"new_pid"`
}

// Explain is the structured record of one rebuild decision: why one
// unit of one build was recompiled or reloaded. It makes the paper's
// cutoff rule (§6) directly auditable — in particular SavedByCutoff,
// which marks the loads a timestamp policy would have recompiled.
type Explain struct {
	Build  int    `json:"build"` // 1-based build generation
	Unit   string `json:"unit"`
	Policy string `json:"policy"` // "cutoff" or "timestamp"
	Action string `json:"action"` // ActionLoaded or ActionCompiled
	Reason string `json:"reason"` // Reason* constant

	// OldPid is the interface pid of the prior cache entry ("" when
	// none existed); NewPid is the pid after this build. Under a
	// cutoff hit the two are equal although the unit recompiled.
	OldPid string `json:"old_pid"`
	NewPid string `json:"new_pid"`

	// SourceChanged reports whether the unit's source hash moved.
	SourceChanged bool `json:"source_changed"`
	// Cutoff marks a recompilation whose interface pid came out
	// unchanged: dependents are cut off.
	Cutoff bool `json:"cutoff"`
	// SavedByCutoff marks a load that happened even though some
	// dependency recompiled — the cutoff rule's payoff.
	SavedByCutoff bool `json:"saved_by_cutoff"`

	// ChangedDeps lists the imports whose interface pids differ from
	// the cached entry's record (set when Reason is
	// ReasonDepInterfaceChanged).
	ChangedDeps []DepChange `json:"changed_deps,omitempty"`
	// HashError records a failed interface-hash measurement (the
	// build continues; the pid from compilation is authoritative).
	HashError string `json:"hash_error,omitempty"`
	// SaveError records a failed bin save (the build continues
	// uncached).
	SaveError string `json:"save_error,omitempty"`
	// Error records a fatal compile/load error that aborted the
	// build at this unit.
	Error string `json:"error,omitempty"`
}

// ReportSchema identifies the machine-readable build report format
// emitted by `irm build -report json` and friends. Version 2 adds the
// execute-phase timing keys (timings_ns.exec_imports / exec_apply /
// exec_bind). Every timings_ns value is a build's time.<phase>_ns
// delta, fed by the phase spans; the lock, session, scan, order and
// save keys were added within version 2, the others kept their meaning.
const ReportSchema = "irm-report/2"

// UnitTiming is one unit's committed wall time within a build: the
// duration of its unit span, from dispatch-side work through the
// serialized execute/save tail. The Manager records one per committed
// unit; the build-history ledger persists them and `irm top`
// aggregates them across builds.
type UnitTiming struct {
	Unit   string `json:"unit"`
	Action string `json:"action"` // ActionLoaded or ActionCompiled
	Ns     int64  `json:"ns"`
	// ExecNs is the wall time of the unit's execution alone (the
	// execute phase on its exec worker); Steps its interpreter step
	// count. Both feed `irm top -by exec`.
	ExecNs int64  `json:"exec_ns,omitempty"`
	Steps  uint64 `json:"steps,omitempty"`
}

// Report is the machine-readable summary of one build: the classic
// Stats fields, phase timings, the raw counter deltas, and the full
// explain log.
type Report struct {
	Schema     string           `json:"schema"`
	Name       string           `json:"name"`   // group or program name
	Policy     string           `json:"policy"` // recompilation policy
	Units      int              `json:"units"`
	Parsed     int              `json:"parsed"`
	Compiled   int              `json:"compiled"`
	Loaded     int              `json:"loaded"`
	Cutoffs    int              `json:"cutoffs"`
	Executed   int              `json:"executed"`
	Corrupt    int              `json:"corrupt"`
	Recovered  int              `json:"recovered"`
	SaveErrors int              `json:"save_errors"`
	HashErrors int              `json:"hash_errors"`
	TimingsNs  map[string]int64 `json:"timings_ns"`
	Counters   map[string]int64 `json:"counters"`
	Explain    []Explain        `json:"explain"`
}
