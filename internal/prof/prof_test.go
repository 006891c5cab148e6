package prof_test

// The profiler's contract tests: symbolization resolves SML names and
// lines, the irm-profile/1 report is a pure function of the program (identical
// bytes at any -j), and the pprof encoding round-trips through
// `go tool pprof -raw`.

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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

// TestStructureFunctionsNamed: a function of a structure is named by
// its path — through an ascription, a nested structure and a functor
// application — since lambda.Prune forwards each member's Select from
// the structure's record to the function's own variable.
func TestStructureFunctionsNamed(t *testing.T) {
	const src = `
signature S = sig val fib : int -> int end
structure A : S = struct fun fib n = if n < 2 then n else fib (n-1) + fib (n-2) end
structure C = struct structure D = struct fun h z = z * 2 end end
functor F (X : sig val n : int end) = struct fun g y = y + X.n end
structure B = F (struct val n = 1 end)
val r = A.fib 10 + C.D.h 4 + B.g 2
`
	m := core.NewManager()
	m.ProfilePeriod = 64
	if _, err := m.Build([]core.File{{Name: "s.sml", Source: src}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A.fib", "C.D.h", "B.g"} {
		findFunc(t, m.Prof, "s.sml", name)
	}
	var buf bytes.Buffer
	if err := m.Prof.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "s.sml:A.fib") {
		t.Errorf("folded output lacks s.sml:A.fib frames:\n%s", buf.String())
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

// preludeSourceB drives prelude functions hot enough to be sampled:
// foldl and List.tabulate run on every machine from the one compiled
// prelude the process shares.
const preludeSourceB = `
val x = fib 12
val s = foldl (fn (i, acc) => i + acc) 0 (List.tabulate (400, fn i => i))
`

// profileArtifacts builds the fib-and-prelude workload with profiling
// on and returns its irm-profile/1 JSON, folded stacks and pprof bytes.
func profileArtifacts(jobs int) ([3][]byte, error) {
	var out [3][]byte
	m := core.NewManager()
	m.Jobs = jobs
	m.ProfilePeriod = 32
	files := []core.File{
		{Name: "a.sml", Source: profSourceA},
		{Name: "b.sml", Source: preludeSourceB},
	}
	if _, err := m.Build(files); err != nil {
		return out, err
	}
	p := m.Prof
	for i, emit := range []func(io.Writer) error{p.Report("conc").WriteJSON, p.WriteFolded, p.WritePprof} {
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			return out, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// TestConcurrentProfiledBuilds runs profiled builds at once (under
// -race): every build's machine executes the process's one compiled
// prelude, whose functions carry their unit name from compilation, so
// the builds share nothing they write. Their three artifacts must be
// the serial run's bytes, with prelude frames attributed to $prelude.
func TestConcurrentProfiledBuilds(t *testing.T) {
	want, err := profileArtifacts(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want[1], []byte("$prelude:")) {
		t.Fatalf("serial folded stacks lack $prelude frames:\n%s", want[1])
	}
	jobs := []int{1, 2, 4, 1}
	got := make([][3][]byte, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i, j int) {
			defer wg.Done()
			got[i], errs[i] = profileArtifacts(j)
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("build %d (-j%d): %v", i, jobs[i], errs[i])
		}
		for k, kind := range []string{"JSON", "folded", "pprof"} {
			if !bytes.Equal(got[i][k], want[k]) {
				t.Errorf("build %d (-j%d): %s profile differs from the serial run's", i, jobs[i], kind)
			}
		}
	}
}
