package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOutput pins what the example prints: plugins in name order, the
// greeter run in a fresh session, and the stale greeter refused once
// the host's interface changed.
func TestOutput(t *testing.T) {
	want := []string{
		"host interface pid: 77844cb7",
		`plugin "broken" rejected at compile time:`,
		"  plugin-broken: 2:27: function application: type mismatch: int * int vs string",
		`plugin "greeter" compiled: 271 bin bytes, imports 2 pids`,
		"",
		"--- fresh session: rehydrate, verify, link, run ---",
		"[host] hello from plugin, host version 1.0",
		"[host] combine (4, 2) = 42",
		"",
		"--- host interface changed; stale plugin must not link ---",
		"linker refused the stale bin: link plugin-greeter: import 78844cb7 has no provider " +
			"(the unit it was compiled against has a different interface now)",
	}
	wantOut := strings.Join(want, "\n") + "\n"
	for i := 0; i < 3; i++ {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatal(err)
		}
		if out.String() != wantOut {
			t.Fatalf("run %d printed:\n%swant:\n%s", i, out.String(), wantOut)
		}
	}
}
