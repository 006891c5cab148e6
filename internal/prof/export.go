package prof

// The human- and tool-facing exports that are not profile.proto: the
// irm-profile/1 JSON report (the determinism-tested artifact: its
// bytes are a pure function of the profiled program), folded-stack
// text for flamegraph tools, and the fixed-width hot-function table
// `irm profile` and `irm top` print.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is the irm-profile/1 JSON document. It deliberately carries
// no wall-clock fields: steps, applies, allocs, and sample counts are
// the only magnitudes, which is what makes the report byte-identical
// at any -j and across daemon/local runs.
type Report struct {
	Schema       string  `json:"schema"`
	Name         string  `json:"name"`
	Engine       string  `json:"engine"`
	Period       uint64  `json:"period"`
	Units        int     `json:"units"`
	TotalSteps   uint64  `json:"total_steps"`
	TotalSamples int64   `json:"total_samples"`
	Functions    []Func  `json:"functions"`
	Stacks       []Stack `json:"stacks"`
}

// reportEngine is the irm-profile/1 "engine" field. Units execute
// only in compiled form, so it always reads "closure"; the field stays
// so reports remain comparable with earlier ones.
const reportEngine = "closure"

// Report builds the irm-profile/1 document for a named build.
func (p *Profile) Report(name string) *Report {
	return &Report{
		Schema:       ReportSchema,
		Name:         name,
		Engine:       reportEngine,
		Period:       p.Period,
		Units:        p.Units,
		TotalSteps:   p.TotalSteps,
		TotalSamples: p.TotalSamples,
		Functions:    p.Funcs,
		Stacks:       p.Stacks,
	}
}

// WriteJSON writes the report as one JSON document plus newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFolded writes the profile as folded stacks — one line per
// distinct activation chain, frames root-first joined by ";", a space,
// and the capture count — the input format of flamegraph.pl and
// speedscope.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, s := range p.Stacks {
		for i, fi := range s.Frames {
			if i > 0 {
				if _, err := io.WriteString(w, ";"); err != nil {
					return err
				}
			}
			f := p.Funcs[fi]
			if _, err := fmt.Fprintf(w, "%s:%s", f.Unit, f.Name); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " %d\n", s.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFiles writes the profile's three export formats beside each
// other: base.json (the irm-profile/1 report for the named build),
// base.folded (flamegraph folded-stack text), and base.pb (pprof
// profile.proto, what `go tool pprof` loads). Every CLI surface goes
// through here, so a daemon scrape and a local run of the same
// sources produce byte-identical files.
func (p *Profile) WriteFiles(base, name string) error {
	write := func(suffix string, emit func(io.Writer) error) error {
		f, err := os.Create(base + suffix)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(".json", p.Report(name).WriteJSON); err != nil {
		return err
	}
	if err := write(".folded", p.WriteFolded); err != nil {
		return err
	}
	return write(".pb", p.WritePprof)
}

// WriteTable prints the top-n hot-function table.
func (p *Profile) WriteTable(w io.Writer, n int) {
	fmt.Fprintf(w, "%-28s %-20s %6s %12s %10s %10s %8s %8s\n",
		"FUNCTION", "UNIT", "LINE", "SELF-STEPS", "STEP%", "APPLIES", "ALLOCS", "SAMPLES")
	total := int64(0)
	for _, f := range p.Funcs {
		total += f.SelfSteps
	}
	for _, f := range p.Top(n) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(f.SelfSteps) / float64(total)
		}
		line := ""
		if f.Line > 0 {
			line = fmt.Sprintf("%d", f.Line)
		}
		fmt.Fprintf(w, "%-28s %-20s %6s %12d %9.1f%% %10d %8d %8d\n",
			trunc(f.Name, 28), trunc(f.Unit, 20), line,
			f.SelfSteps, share, f.Applies, f.Allocs, f.LeafSamples)
	}
	fmt.Fprintf(w, "%d functions, %d samples (1/%d steps), %d steps, engine %s\n",
		len(p.Funcs), p.TotalSamples, p.Period, p.TotalSteps, reportEngine)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
