package repro

// End-to-end tests of the SML-level execution profiler's surfaces
// (DESIGN.md §4k): `irm profile`, `irm build -profile`, `smlrun
// -profile`, the daemon's /debug/sml/profile endpoint, and `irm top
// -by`. The load-bearing claims: the irm-profile/1 artifacts are
// byte-identical at any -j and across daemon/local runs, profiling
// never perturbs a store byte, and the pprof encoding loads in
// `go tool pprof`.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeFibProject writes the apply-heavy two-unit workload the
// profiler tests build: a recursive library and a driver. Under the
// closure engine steps accrue per application, so recursion is what
// makes samples appear.
func writeFibProject(t *testing.T, dir string) string {
	t.Helper()
	writeFile(t, filepath.Join(dir, "a.sml"),
		"fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n"+
			"fun tri n = if n = 0 then 0 else n + tri (n-1)\n")
	writeFile(t, filepath.Join(dir, "b.sml"),
		"val x = fib 16\nval y = tri 100\n")
	group := filepath.Join(dir, "group.cm")
	writeFile(t, group, "a.sml\nb.sml\n")
	return group
}

// storeDigest hashes every regular file of a store directory except
// lock files, keyed by relative path.
func storeDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	sums := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".lock") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sums[rel] = fmt.Sprintf("%x", sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProfilerCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm", "smlrun")
	work := t.TempDir()
	group := writeFibProject(t, work)

	t.Run("profile-command", func(t *testing.T) {
		base := filepath.Join(work, "pc")
		out, err := runTool(t, tools["irm"], "", "profile", group,
			"-store", filepath.Join(work, "pc-store"), "-history", "off", "-o", base)
		if err != nil {
			t.Fatalf("irm profile: %v\n%s", err, out)
		}
		for _, want := range []string{"fib", "tri", "SELF-STEPS", "engine closure"} {
			if !strings.Contains(out, want) {
				t.Errorf("table output lacks %q:\n%s", want, out)
			}
		}
		folded := string(readFileT(t, base+".folded"))
		if !strings.Contains(folded, "a.sml:fib") {
			t.Errorf("folded output lacks a.sml:fib:\n%s", folded)
		}
	})

	t.Run("deterministic-across-jobs", func(t *testing.T) {
		bases := []string{}
		for i, jobs := range []string{"1", "8"} {
			base := filepath.Join(work, fmt.Sprintf("dj%d", i))
			out, err := runTool(t, tools["irm"], "", "build", group,
				"-store", filepath.Join(work, fmt.Sprintf("dj%d-store", i)),
				"-daemon", "off", "-history", "off", "-j", jobs, "-profile", base)
			if err != nil {
				t.Fatalf("irm build -profile -j %s: %v\n%s", jobs, err, out)
			}
			bases = append(bases, base)
		}
		for _, ext := range []string{".json", ".folded", ".pb"} {
			a, b := readFileT(t, bases[0]+ext), readFileT(t, bases[1]+ext)
			if string(a) != string(b) {
				t.Errorf("%s differs between -j1 and -j8", ext)
			}
		}
	})

	t.Run("bins-unchanged-by-profiling", func(t *testing.T) {
		plain, profiled := filepath.Join(work, "bu-plain"), filepath.Join(work, "bu-prof")
		if out, err := runTool(t, tools["irm"], "", "build", group,
			"-store", plain, "-daemon", "off", "-history", "off"); err != nil {
			t.Fatalf("unprofiled build: %v\n%s", err, out)
		}
		if out, err := runTool(t, tools["irm"], "", "build", group,
			"-store", profiled, "-daemon", "off", "-history", "off",
			"-profile", filepath.Join(work, "bu")); err != nil {
			t.Fatalf("profiled build: %v\n%s", err, out)
		}
		a, b := storeDigest(t, plain), storeDigest(t, profiled)
		if len(a) == 0 {
			t.Fatal("store digest empty")
		}
		for rel, sum := range a {
			if b[rel] != sum {
				t.Errorf("store file %s differs under profiling", rel)
			}
		}
		if len(a) != len(b) {
			t.Errorf("store file count differs: %d vs %d", len(a), len(b))
		}
	})

	t.Run("report-schema-golden", func(t *testing.T) {
		var report map[string]any
		if err := json.Unmarshal(readFileT(t, filepath.Join(work, "dj0.json")), &report); err != nil {
			t.Fatal(err)
		}
		got := strings.Join(keyPaths(report), "\n") + "\n"
		goldenPath := filepath.Join("testdata", "profile_schema.golden")
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden: %v (regenerate with the paths below)\n%s", err, got)
		}
		if got != string(want) {
			t.Errorf("irm-profile/1 schema drifted from %s.\ngot:\n%s\nwant:\n%s",
				goldenPath, got, want)
		}
	})

	t.Run("pprof-loads", func(t *testing.T) {
		goBin, err := exec.LookPath("go")
		if err != nil {
			t.Skip("go tool unavailable")
		}
		out, err := exec.Command(goBin, "tool", "pprof", "-raw",
			filepath.Join(work, "dj0.pb")).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool pprof -raw: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "fib") {
			t.Errorf("pprof -raw output lacks fib:\n%s", out)
		}
	})

	t.Run("smlrun-profile", func(t *testing.T) {
		base := filepath.Join(work, "sr")
		out, err := runTool(t, tools["smlrun"], "", "-profile", base,
			filepath.Join(work, "a.sml"), filepath.Join(work, "b.sml"))
		if err != nil {
			t.Fatalf("smlrun -profile: %v\n%s", err, out)
		}
		if folded := string(readFileT(t, base+".folded")); !strings.Contains(folded, "a.sml:fib") {
			t.Errorf("smlrun folded output lacks a.sml:fib:\n%s", folded)
		}
	})

	t.Run("top-by", func(t *testing.T) {
		hist := filepath.Join(work, "tb-hist")
		if out, err := runTool(t, tools["irm"], "", "build", group,
			"-store", filepath.Join(work, "tb-store"), "-daemon", "off",
			"-history", hist, "-profile", filepath.Join(work, "tb")); err != nil {
			t.Fatalf("profiled build: %v\n%s", err, out)
		}
		out, err := runTool(t, tools["irm"], "", "top", "-dir", hist, "-by", "exec")
		if err != nil {
			t.Fatalf("irm top -by exec: %v\n%s", err, out)
		}
		if !strings.Contains(out, "b.sml") || !strings.Contains(out, "EXEC-TOTAL") {
			t.Errorf("top -by exec output:\n%s", out)
		}
		out, err = runTool(t, tools["irm"], "", "top", "-dir", hist, "-by", "fn")
		if err != nil {
			t.Fatalf("irm top -by fn: %v\n%s", err, out)
		}
		if !strings.Contains(out, "fib") || !strings.Contains(out, "SELF-STEPS") {
			t.Errorf("top -by fn output:\n%s", out)
		}
	})
}

// TestProfilerDaemon checks the daemon surface: a daemon started with
// -profile serves the latest build's profile on /debug/sml/profile,
// and its folded bytes equal a local in-process profiled build of the
// same sources.
func TestProfilerDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm")
	work := t.TempDir()
	group := writeFibProject(t, work)

	// Local reference run first (its own store).
	localBase := filepath.Join(work, "local")
	if out, err := runTool(t, tools["irm"], "", "build", group,
		"-store", filepath.Join(work, "local-store"), "-daemon", "off",
		"-history", "off", "-profile", localBase); err != nil {
		t.Fatalf("local profiled build: %v\n%s", err, out)
	}

	store := filepath.Join(work, "daemon-store")
	socket, _, _ := startDaemonCmd(t, tools["irm"], "-store", store, "-profile", "-history", "off")

	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				return net.Dial("unix", socket)
			},
		},
		Timeout: 10 * time.Second,
	}
	get := func(path string) (int, []byte) {
		resp, err := client.Get("http://daemon" + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Before any build: the endpoint exists but has nothing to serve.
	if code, _ := get("/debug/sml/profile"); code != http.StatusNotFound {
		t.Errorf("pre-build scrape status %d, want 404", code)
	}

	if out, err := runTool(t, tools["irm"], "", "build", group,
		"-store", store, "-daemon", socket, "-history", "off"); err != nil {
		t.Fatalf("build via daemon: %v\n%s", err, out)
	}

	code, folded := get("/debug/sml/profile?format=folded")
	if code != http.StatusOK {
		t.Fatalf("folded scrape status %d", code)
	}
	if want := readFileT(t, localBase+".folded"); string(folded) != string(want) {
		t.Errorf("daemon folded profile differs from local run.\ndaemon:\n%s\nlocal:\n%s",
			folded, want)
	}
	code, body := get("/debug/sml/profile")
	if code != http.StatusOK {
		t.Fatalf("json scrape status %d", code)
	}
	var rep struct {
		Schema string `json:"schema"`
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("scraped profile is not JSON: %v", err)
	}
	if rep.Schema != "irm-profile/1" || rep.Engine != "closure" {
		t.Errorf("scraped report schema=%q engine=%q", rep.Schema, rep.Engine)
	}
	if code, pb := get("/debug/sml/profile?format=pprof"); code != http.StatusOK || len(pb) == 0 {
		t.Errorf("pprof scrape status %d, %d bytes", code, len(pb))
	}
}
