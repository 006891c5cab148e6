package core

import "repro/internal/obs"

// reportTimings maps each timings_ns key of the report to the phase
// whose time.<phase>_ns counter it reads: "exec" is the inclusive
// execute span, exec_* its sub-phases, and hash is timed in compile.
var reportTimings = map[string]string{
	"lock": "lock", "session": "session", "scan": "scan", "parse": "parse",
	"order": "order", "compile": "compile", "hash": "hash", "pickle": "pickle",
	"load": "load", "save": "save", "exec": "execute",
	"exec_imports": "imports", "exec_apply": "apply", "exec_bind": "bind",
}

// Report assembles the machine-readable summary of the most recent
// Build: the Stats view, per-phase timings, the raw counter deltas,
// and the explain log. name labels the build (group file or program).
func (m *Manager) Report(name string) obs.Report {
	st := m.Stats
	explain := m.Explains
	if explain == nil {
		explain = []obs.Explain{}
	}
	counters := m.Counters
	if counters == nil {
		counters = map[string]int64{}
	}
	timings := make(map[string]int64, len(reportTimings))
	for key, phase := range reportTimings {
		timings[key] = counters[obs.PhaseCounter(phase)]
	}
	return obs.Report{
		Schema:     obs.ReportSchema,
		Name:       name,
		Policy:     m.Policy.String(),
		Units:      st.Units,
		Parsed:     st.Parsed,
		Compiled:   st.Compiled,
		Loaded:     st.Loaded,
		Cutoffs:    st.Cutoffs,
		Executed:   st.Executed,
		Corrupt:    st.Corrupt,
		Recovered:  st.Recovered,
		SaveErrors: st.SaveErrors,
		HashErrors: st.HashErrors,
		TimingsNs:  timings,
		Counters:   counters,
		Explain:    explain,
	}
}
