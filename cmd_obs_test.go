package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runToolSplit runs a tool capturing stdout and stderr separately —
// the telemetry contract puts reports on stdout and explain streams
// on stderr, and the tests must see them apart.
func runToolSplit(t *testing.T, bin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// lastLine returns the final non-empty line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// keyPaths flattens a decoded JSON value into sorted dotted key
// paths. Dynamic maps (counters) are collapsed to a single ".*" entry
// so the schema stays stable as instrumentation grows; arrays
// contribute the paths of their first element under "[]".
func keyPaths(v any) []string {
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				if k == "counters" {
					paths = append(paths, p+".*")
					continue
				}
				paths = append(paths, p)
				walk(p, child)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix+"[]", x[0])
			}
		}
	}
	walk("", v)
	sort.Strings(paths)
	return paths
}

// traceEvent mirrors the Chrome trace_event fields the tests check.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func TestTelemetryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm")
	work := t.TempDir()

	libPath := filepath.Join(work, "lib.sml")
	mainPath := filepath.Join(work, "main.sml")
	groupPath := filepath.Join(work, "prog.cm")
	writeFile(t, libPath, "structure Lib = struct fun triple n = 3 * n end\n")
	writeFile(t, mainPath, `val _ = print (Int.toString (Lib.triple 14) ^ "\n")`+"\n")
	writeFile(t, groupPath, "lib.sml\nmain.sml\n")
	store := filepath.Join(work, "store")

	t.Run("report-json-schema", func(t *testing.T) {
		// The machine-readable report's shape is a compatibility
		// contract: additions require updating the golden file.
		stdout, _, err := runToolSplit(t, tools["irm"],
			"build", groupPath, "-store", filepath.Join(work, "schema-store"), "-report", "json")
		if err != nil {
			t.Fatalf("irm build -report json: %v\n%s", err, stdout)
		}
		var report map[string]any
		if err := json.Unmarshal([]byte(lastLine(stdout)), &report); err != nil {
			t.Fatalf("last stdout line is not JSON: %v\n%q", err, lastLine(stdout))
		}
		got := strings.Join(keyPaths(report), "\n") + "\n"
		goldenPath := filepath.Join("testdata", "report_schema.golden")
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden: %v (regenerate with the paths below)\n%s", err, got)
		}
		if got != string(want) {
			t.Errorf("report schema drifted from %s.\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
		}
	})

	t.Run("trace-valid", func(t *testing.T) {
		tracePath := filepath.Join(work, "trace.json")
		stdout, _, err := runToolSplit(t, tools["irm"],
			"build", groupPath, "-store", filepath.Join(work, "trace-store"), "-trace", tracePath)
		if err != nil {
			t.Fatalf("irm build -trace: %v\n%s", err, stdout)
		}
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents     []traceEvent `json:"traceEvents"`
			DisplayTimeUnit string       `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		if tf.DisplayTimeUnit == "" || len(tf.TraceEvents) == 0 {
			t.Fatalf("trace envelope incomplete: unit=%q events=%d",
				tf.DisplayTimeUnit, len(tf.TraceEvents))
		}

		var build *traceEvent
		units := map[string]traceEvent{}
		for i, ev := range tf.TraceEvents {
			if ev.Ph != "X" {
				t.Errorf("event %q: ph=%q, want complete event \"X\"", ev.Name, ev.Ph)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q: negative ts/dur (%v/%v)", ev.Name, ev.Ts, ev.Dur)
			}
			switch ev.Cat {
			case "build":
				build = &tf.TraceEvents[i]
			case "unit":
				units[ev.Name] = ev
			}
		}
		if build == nil {
			t.Fatal("no build-category root event")
		}
		// Spans nest: every event sits inside the build root (1ns of
		// float slack), and unit phases sit inside their unit.
		const eps = 1e-3
		contains := func(outer, inner traceEvent) bool {
			return inner.Ts >= outer.Ts-eps && inner.Ts+inner.Dur <= outer.Ts+outer.Dur+eps
		}
		for _, ev := range tf.TraceEvents {
			if !contains(*build, ev) {
				t.Errorf("event %q [%v,+%v] escapes the build span [%v,+%v]",
					ev.Name, ev.Ts, ev.Dur, build.Ts, build.Dur)
			}
		}
		// Both units compiled cold: each unit span must have a compile
		// phase with a strictly positive duration (sub-µs work must not
		// round to zero).
		for _, want := range []string{"lib.sml", "main.sml"} {
			u, ok := units[want]
			if !ok {
				t.Errorf("no unit span for %s", want)
				continue
			}
			var compiled bool
			for _, ev := range tf.TraceEvents {
				if ev.Cat == "phase" && ev.Name == "compile" && contains(u, ev) {
					compiled = true
					if ev.Dur <= 0 {
						t.Errorf("%s: compile phase has zero duration", want)
					}
				}
			}
			if !compiled {
				t.Errorf("%s: no compile phase inside its unit span", want)
			}
		}
	})

	t.Run("explain-one-record-per-unit", func(t *testing.T) {
		// The edit matrix of the paper's evaluation: cold, null,
		// implementation-only edit (cutoff), interface edit (cascade).
		// Every build must explain every unit exactly once.
		scenarios := []struct {
			name    string
			lib     string
			reasons map[string]string // unit -> expected reason
		}{
			{"cold", "", map[string]string{"lib.sml": "cold", "main.sml": "cold"}},
			{"null", "", map[string]string{"lib.sml": "cached", "main.sml": "cached"}},
			{"impl-edit", "(* tweak *) structure Lib = struct fun triple n = 3 * n end\n",
				map[string]string{"lib.sml": "source-changed", "main.sml": "cached"}},
			{"interface-edit", "structure Lib = struct fun triple n = 3 * n val k = 7 end\n",
				map[string]string{"lib.sml": "source-changed", "main.sml": "dep-interface-changed"}},
		}
		for _, sc := range scenarios {
			if sc.lib != "" {
				writeFile(t, libPath, sc.lib)
			}
			_, stderr, err := runToolSplit(t, tools["irm"],
				"build", groupPath, "-store", store, "-explain")
			if err != nil {
				t.Fatalf("%s: irm build -explain: %v\n%s", sc.name, err, stderr)
			}
			seen := map[string]string{}
			for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
				var rec struct {
					Unit   string `json:"unit"`
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("%s: explain line is not JSON: %v\n%q", sc.name, err, line)
				}
				if _, dup := seen[rec.Unit]; dup {
					t.Errorf("%s: duplicate explain record for %s", sc.name, rec.Unit)
				}
				seen[rec.Unit] = rec.Reason
			}
			if len(seen) != len(sc.reasons) {
				t.Errorf("%s: %d explain records, want %d", sc.name, len(seen), len(sc.reasons))
			}
			for unit, want := range sc.reasons {
				if seen[unit] != want {
					t.Errorf("%s: %s reason=%q, want %q", sc.name, unit, seen[unit], want)
				}
			}
		}
	})
}
