package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binfile"
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
		if string(data[:len(binfile.Magic)]) != binfile.Magic {
			t.Fatalf("bin magic %q, want %s", data[:len(binfile.Magic)], binfile.Magic)
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
		// Compare whole lines: the error message carries a temporary
		// directory name, whose random digits may contain "42".
		for _, line := range strings.Split(out, "\n") {
			if line == "lib ran" || line == "42" {
				t.Errorf("a unit ran before the bad bin was refused:\n%s", out)
			}
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

	// An invalid flag value must exit before the store is touched: a
	// rejected watch session leaves no lock file behind.
	t.Run("irm-watch-bad-flag-no-lock", func(t *testing.T) {
		group := filepath.Join(work, "watch.cm")
		writeFile(t, group, "lib.sml\nmain.sml\n")
		store := filepath.Join(work, "watch-store")
		cmd := exec.Command(tools["irm"], "watch", group, "-store", store,
			"-history", "off", "-policy", "bogus")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("irm watch -policy bogus: %v, want exit code 2\n%s", err, out)
		}
		if _, err := os.Stat(filepath.Join(store, ".irm.lock")); !os.IsNotExist(err) {
			t.Errorf("rejected watch left a lock file (stat: %v)", err)
		}
	})

	// irm gen rejects a project size below one unit or one line before
	// it writes anything.
	t.Run("irm-gen-bad-size-writes-nothing", func(t *testing.T) {
		for _, args := range [][]string{
			{"-units", "0"}, {"-units", "-3"}, {"-lines", "-5"}, {"-lines", "0"},
		} {
			dir := filepath.Join(work, "gen-bad")
			cmd := exec.Command(tools["irm"], append([]string{"gen", "-dir", dir}, args...)...)
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("irm gen %v: %v, want exit code 2\n%s", args, err, out)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("irm gen %v wrote %s (stat: %v)", args, dir, err)
				os.RemoveAll(dir)
			}
		}
	})

	// An invalid flag value is named before the usage text, and irm
	// exits 2.
	t.Run("irm-bad-flag-says-why", func(t *testing.T) {
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"watch", "x.cm", "-policy", "bogus"}, `irm: -policy: unknown policy "bogus"`},
			{[]string{"build", "g.cm", "-report", "xml"}, `irm: -report: unknown format "xml"`},
			{[]string{"gen", "-dir", filepath.Join(work, "gen-why"), "-units", "0"}, "irm: -units 0: want at least 1"},
		} {
			out, err := exec.Command(tools["irm"], c.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Errorf("irm %v: %v, want exit code 2\n%s", c.args, err, out)
			}
			first, rest, _ := strings.Cut(string(out), "\n")
			if !strings.HasPrefix(first, c.want) || !strings.HasPrefix(rest, "usage:") {
				t.Errorf("irm %v printed\n%s\nwant a line starting %q, then the usage text", c.args, out, c.want)
			}
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
