package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// buildTools compiles the command-line tools once into a temp dir and
// returns their paths.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func runTool(t *testing.T, bin string, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func writeFile(t *testing.T, path, contents string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "smlc", "smlrun", "irm", "smlrepl")
	work := t.TempDir()

	libPath := filepath.Join(work, "lib.sml")
	mainPath := filepath.Join(work, "main.sml")
	writeFile(t, libPath, "structure Lib = struct fun triple n = 3 * n end\n")
	writeFile(t, mainPath, `val _ = print (Int.toString (Lib.triple 14) ^ "\n")`+"\n")

	t.Run("smlc-and-smlrun-bin", func(t *testing.T) {
		binDir := filepath.Join(work, "bins")
		if err := os.MkdirAll(binDir, 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, tools["smlc"], "", "-d", binDir, "-v", libPath, mainPath)
		if err != nil {
			t.Fatalf("smlc: %v\n%s", err, out)
		}
		if !strings.Contains(out, "lib.sml: interface") {
			t.Errorf("smlc output %q", out)
		}
		// Link bins in the wrong order on purpose: smlrun sorts.
		out, err = runTool(t, tools["smlrun"], "", "-bin",
			filepath.Join(binDir, "main.bin"), filepath.Join(binDir, "lib.bin"))
		if err != nil {
			t.Fatalf("smlrun -bin: %v\n%s", err, out)
		}
		if !strings.Contains(out, "42") {
			t.Errorf("program output %q", out)
		}
	})

	// A bin in the retired SMLBIN01 format is refused at the header
	// pass: smlrun exits non-zero with "bad magic" before the valid
	// provider beside it runs.
	t.Run("smlrun-bin-legacy-magic", func(t *testing.T) {
		dir := filepath.Join(work, "legacy")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		lib := filepath.Join(dir, "lib.sml")
		writeFile(t, lib, "structure Lib = struct val _ = print \"lib ran\\n\" fun triple n = 3 * n end\n")
		if out, err := runTool(t, tools["smlc"], "", "-d", dir, lib, mainPath); err != nil {
			t.Fatalf("smlc: %v\n%s", err, out)
		}
		mainBin := filepath.Join(dir, "main.bin")
		data, err := os.ReadFile(mainBin)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[:8]) != "SMLBIN02" {
			t.Fatalf("bin magic %q, want SMLBIN02", data[:8])
		}
		copy(data, "SMLBIN01")
		writeFile(t, mainBin, string(data))
		out, err := runTool(t, tools["smlrun"], "", "-bin", filepath.Join(dir, "lib.bin"), mainBin)
		if err == nil {
			t.Fatalf("smlrun -bin accepted an SMLBIN01 bin:\n%s", out)
		}
		if !strings.Contains(out, "bad magic") {
			t.Errorf("smlrun -bin error %q, want bad magic", out)
		}
		if strings.Contains(out, "lib ran") || strings.Contains(out, "42") {
			t.Errorf("a unit ran before the bad bin was refused:\n%s", out)
		}
	})

	t.Run("smlrun-sources", func(t *testing.T) {
		out, err := runTool(t, tools["smlrun"], "", mainPath, libPath)
		if err != nil {
			t.Fatalf("smlrun: %v\n%s", err, out)
		}
		if !strings.Contains(out, "42") {
			t.Errorf("program output %q", out)
		}
	})

	t.Run("irm-build-incremental", func(t *testing.T) {
		groupPath := filepath.Join(work, "prog.cm")
		writeFile(t, groupPath, "lib.sml\nmain.sml\n")
		store := filepath.Join(work, "store")

		out, err := runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm build: %v\n%s", err, out)
		}
		if !strings.Contains(out, "compiled 2, loaded 0") {
			t.Errorf("cold build stats: %q", out)
		}
		out, err = runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm rebuild: %v\n%s", err, out)
		}
		if !strings.Contains(out, "compiled 0, loaded 2") {
			t.Errorf("null build stats: %q", out)
		}
		// Comment edit to lib: cutoff.
		writeFile(t, libPath, "(* tweak *) structure Lib = struct fun triple n = 3 * n end\n")
		out, err = runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm edit build: %v\n%s", err, out)
		}
		if !strings.Contains(out, "compiled 1, loaded 1, cutoffs 1") {
			t.Errorf("cutoff build stats: %q", out)
		}
	})

	t.Run("irm-corrupt-recovery", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "lib.sml"), "structure Lib = struct fun triple n = 3 * n end\n")
		writeFile(t, filepath.Join(dir, "main.sml"), `val _ = print (Int.toString (Lib.triple 14) ^ "\n")`+"\n")
		groupPath := filepath.Join(dir, "prog.cm")
		writeFile(t, groupPath, "lib.sml\nmain.sml\n")
		store := filepath.Join(dir, "store")

		out, err := runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm build: %v\n%s", err, out)
		}
		// Damage one cached entry; the next build must report recovery.
		writeFile(t, filepath.Join(store, "lib.sml.bin"), "garbage")
		out, err = runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm recovery build: %v\n%s", err, out)
		}
		if !strings.Contains(out, "corrupt 1, recovered 1") {
			t.Errorf("recovery build stats: %q", out)
		}
	})

	t.Run("irm-concurrent-builds", func(t *testing.T) {
		// Two irm processes on one store must serialize via the lockfile:
		// both exit 0 and the cache they leave is complete and clean.
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "lib.sml"), "structure Lib = struct fun triple n = 3 * n end\n")
		writeFile(t, filepath.Join(dir, "main.sml"), `val _ = print (Int.toString (Lib.triple 14) ^ "\n")`+"\n")
		groupPath := filepath.Join(dir, "prog.cm")
		writeFile(t, groupPath, "lib.sml\nmain.sml\n")
		store := filepath.Join(dir, "store")

		type result struct {
			out string
			err error
		}
		results := make(chan result, 2)
		for i := 0; i < 2; i++ {
			go func() {
				cmd := exec.Command(tools["irm"], "build", groupPath, "-store", store)
				out, err := cmd.CombinedOutput()
				results <- result{string(out), err}
			}()
		}
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				t.Fatalf("concurrent irm build: %v\n%s", r.err, r.out)
			}
		}
		out, err := runTool(t, tools["irm"], "", "build", groupPath, "-store", store)
		if err != nil {
			t.Fatalf("irm null build after race: %v\n%s", err, out)
		}
		if !strings.Contains(out, "compiled 0, loaded 2") || !strings.Contains(out, "corrupt 0") {
			t.Errorf("cache inconsistent after concurrent builds: %q", out)
		}
	})

	t.Run("irm-deps-and-collision", func(t *testing.T) {
		groupPath := filepath.Join(work, "prog.cm")
		out, err := runTool(t, tools["irm"], "", "deps", groupPath)
		if err != nil {
			t.Fatalf("irm deps: %v\n%s", err, out)
		}
		if !strings.Contains(out, "main.sml: lib.sml") {
			t.Errorf("deps output %q", out)
		}
		out, err = runTool(t, tools["irm"], "", "collision")
		if err != nil || !strings.Contains(out, "2^-103") {
			t.Errorf("collision output: %v %q", err, out)
		}
	})

	// A width above GOMAXPROCS would measure scheduler overhead on
	// fewer cores and record it as cold_speedup: irm bench refuses it.
	t.Run("irm-bench-width-above-gomaxprocs", func(t *testing.T) {
		procs := runtime.GOMAXPROCS(0)
		cmd := exec.Command(tools["irm"], "bench", "-out", filepath.Join(work, "bench.json"),
			"-units", "2", "-lines", "5", "-j", strconv.Itoa(procs+1))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("irm bench -j %d: %v, want exit code 2\n%s", procs+1, err, out)
		}
		if want := "outside 1..GOMAXPROCS"; !strings.Contains(string(out), want) {
			t.Errorf("irm bench output %q, want it to mention %q", out, want)
		}
		if _, err := os.Stat(filepath.Join(work, "bench.json")); !os.IsNotExist(err) {
			t.Errorf("refused run wrote its output file (stat: %v)", err)
		}
	})

	t.Run("smlrepl", func(t *testing.T) {
		input := "val x = 6 * 7;\nx - 2;\nquit;\n"
		out, err := runTool(t, tools["smlrepl"], input)
		if err != nil {
			t.Fatalf("smlrepl: %v\n%s", err, out)
		}
		if !strings.Contains(out, "val x = 42 : int") || !strings.Contains(out, "val it = 40 : int") {
			t.Errorf("repl output %q", out)
		}
	})
}
