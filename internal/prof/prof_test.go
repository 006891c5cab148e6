package prof_test

// The profiler's contract tests: symbolization resolves SML names and
// lines, the irm-profile/1 report is a pure function of the program (identical
// bytes at any -j), and the pprof encoding round-trips through
// `go tool pprof -raw`.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/prof"
)

const profSourceA = `
fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)
fun tri n = if n = 0 then 0 else n + tri (n-1)
`

const profSourceB = `
val x = fib 16
val y = tri 100
`

// buildProfiled runs the two-unit fib workload with profiling on and
// returns the finished profile.
func buildProfiled(t *testing.T, jobs int) *prof.Profile {
	t.Helper()
	m := core.NewManager()
	m.Jobs = jobs
	m.ProfilePeriod = 64
	files := []core.File{
		{Name: "a.sml", Source: profSourceA},
		{Name: "b.sml", Source: profSourceB},
	}
	if _, err := m.Build(files); err != nil {
		t.Fatalf("build (j=%d): %v", jobs, err)
	}
	if m.Prof == nil {
		t.Fatalf("profiled build left Manager.Prof nil")
	}
	return m.Prof
}

func findFunc(t *testing.T, p *prof.Profile, unit, name string) prof.Func {
	t.Helper()
	for _, f := range p.Funcs {
		if f.Unit == unit && f.Name == name {
			return f
		}
	}
	t.Fatalf("function %s:%s not in profile (have %d funcs)", unit, name, len(p.Funcs))
	return prof.Func{}
}

func TestSymbolization(t *testing.T) {
	p := buildProfiled(t, 1)
	fib := findFunc(t, p, "a.sml", "fib")
	tri := findFunc(t, p, "a.sml", "tri")
	// fib n computes fib(n-1)+fib(n-2) with fib(0..1) free: 2*fib(n+1)-1
	// applications for the fib n call tree, plus the top-level call.
	if fib.Applies != 3193 {
		t.Errorf("fib applies = %d, want 3193", fib.Applies)
	}
	if tri.Applies != 101 {
		t.Errorf("tri applies = %d, want 101", tri.Applies)
	}
	// Lines come from the lexical scan of the unit source: fib is
	// declared on line 2, tri on line 3 (line 1 is blank).
	if fib.Line != 2 || tri.Line != 3 {
		t.Errorf("lines fib=%d tri=%d, want 2 and 3", fib.Line, tri.Line)
	}
	if p.TotalSamples == 0 || len(p.Stacks) == 0 {
		t.Errorf("no samples captured (samples=%d stacks=%d)", p.TotalSamples, len(p.Stacks))
	}
	// The hottest function of this workload is fib.
	if p.Funcs[0].Name != "fib" {
		t.Errorf("hottest function = %s, want fib", p.Funcs[0].Name)
	}
}

func TestReportDeterministicAcrossJobs(t *testing.T) {
	var want []byte
	for _, jobs := range []int{1, 4, 8} {
		p := buildProfiled(t, jobs)
		var buf bytes.Buffer
		if err := p.Report("det").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("irm-profile/1 report differs between -j1 and -j%d", jobs)
		}
	}
}

func TestFoldedStacks(t *testing.T) {
	p := buildProfiled(t, 2)
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("folded output empty")
	}
	if !strings.Contains(out, "a.sml:fib") {
		t.Errorf("folded output lacks a.sml:fib frames:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, " ") {
			t.Errorf("folded line %q lacks a count", line)
		}
	}
}

func TestPprofRoundTrip(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool unavailable")
	}
	p := buildProfiled(t, 1)
	path := filepath.Join(t.TempDir(), "prof.pb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WritePprof(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-raw", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v\n%s", err, out)
	}
	raw := string(out)
	for _, want := range []string{"PeriodType: steps count", "samples/count", "fib", "a.sml"} {
		if !strings.Contains(raw, want) {
			t.Errorf("pprof -raw output lacks %q:\n%s", want, raw)
		}
	}
}

func TestHistoryTopInputs(t *testing.T) {
	p := buildProfiled(t, 1)
	top := p.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) returned %d rows", len(top))
	}
	if top[0].SelfSteps < top[1].SelfSteps {
		t.Errorf("Top not sorted by self-steps: %d < %d", top[0].SelfSteps, top[1].SelfSteps)
	}
}
