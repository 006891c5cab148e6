package interp_test

// Proper tail calls (DESIGN.md §4j, "Tail calls"): a call in tail
// position runs in its caller's callFn loop, so a loop written as tail
// recursion runs in constant Go stack, with the profiler off and on.
// The tests lower the goroutine stack limit to 64 MB, where a closure
// builder that ran every call as a Go call dies with a fatal stack
// overflow after some 60,000 iterations.

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// tailStackLimit is the goroutine stack limit the tests run under.
const tailStackLimit = 64 << 20

// tailIterations is the depth each loop runs to: ten million, or one
// million under the race detector, which runs ten times slower and
// still passes the 64 MB limit of a non-tail engine by far.
func tailIterations() int {
	if raceEnabled {
		return 1_000_000
	}
	return 10_000_000
}

func TestTailCallsConstantStack(t *testing.T) {
	n := tailIterations()
	defer debug.SetMaxStack(debug.SetMaxStack(tailStackLimit))
	for _, tc := range []struct {
		name, src, want string
	}{
		// The clausal loop: its second clause is a join point, which
		// selects from the loop's parameter, so the loop does not
		// borrow; each step is a tail call to the join and one from it.
		{"loop", fmt.Sprintf(`fun loop (0, acc) = acc | loop (n, acc) = loop (n - 1, acc + 1)
val r = loop (%d, 0)`, n), fmt.Sprint(n)},
		// A self tail call lending its argument tuple to the callee,
		// which borrows it (export 0).
		{"borrowed", fmt.Sprintf(`fun loop (n, acc) = if n = 0 then acc else loop (n - 1, acc + 1)
val r = loop (%d, 0)`, n), fmt.Sprint(n)},
		{"even-odd", fmt.Sprintf(`fun even 0 = true | even n = odd (n - 1)
and odd 0 = false | odd n = even (n - 1)
val r = even %d`, n), "true"},
		// The prelude's curried foldl, over a list a tail-recursive
		// loop builds: each step is a saturated chain in tail position,
		// from the join point of foldl's second clause.
		{"foldl", fmt.Sprintf(`fun upto (0, acc) = acc | upto (n, acc) = upto (n - 1, n :: acc)
val l = upto (%d, [])
val r = foldl (fn (x, s) => x + s) 0 l`, n/10), fmt.Sprint(n / 10 * (n/10 + 1) / 2)},
	} {
		for _, profiled := range []bool{false, true} {
			name := tc.name
			if profiled {
				name += "/profiled"
			}
			t.Run(name, func(t *testing.T) {
				s, err := compiler.NewSession(io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				u, err := s.Compile("tail.sml", tc.src)
				if err != nil {
					t.Fatal(err)
				}
				m := s.Machine.Fork()
				m.Stdout = io.Discard
				if profiled {
					m.StartProfile(0)
				}
				if err := compiler.Execute(m, u, s.Dyn, nil, nil, 0); err != nil {
					t.Fatal(err)
				}
				var got []string
				for i := 0; i < u.NumSlots; i++ {
					v, _ := s.Dyn.Lookup(u.ExportPid(i))
					got = append(got, interp.String(v))
				}
				if r := got[len(got)-1]; r != tc.want {
					t.Errorf("r = %s, want %s", r, tc.want)
				}
				if tc.name == "loop" || tc.name == "borrowed" {
					v, _ := s.Dyn.Lookup(u.ExportPid(0))
					c, ok := v.(*interp.CompiledClosure)
					if want := tc.name == "borrowed"; !ok || interp.Borrows(c.Fn) != want {
						t.Errorf("loop = %s borrows %v, want %v", interp.String(v), ok && interp.Borrows(c.Fn), want)
					}
				}
				// The frames a loop recycles stay few: each call's frame
				// goes back before its tail call takes the next.
				if got := interp.PooledFrames(m); got > 64 {
					t.Errorf("%d frames pooled after the loop, want a few", got)
				}
				if profiled {
					ups := m.TakeUnitProfiles()
					if len(ups) != 1 || ups[0].Steps == 0 {
						t.Fatalf("unit profiles %v, want one with steps", ups)
					}
					for _, st := range ups[0].Stacks {
						if len(st.Frames) > 8 {
							t.Errorf("sampled stack %d frames deep, want the tail calls elided: %v",
								len(st.Frames), st.Frames)
							break
						}
					}
				}
			})
		}
	}
}

// TestTailCallsStepsExact pins the steps of both loops: one per
// application, as when every call was a Go call — for the clausal loop
// that is the loop's and its second clause's join point's.
func TestTailCallsStepsExact(t *testing.T) {
	for _, tc := range []struct {
		src   string
		steps uint64
	}{
		{"fun loop (0, acc) = acc | loop (n, acc) = loop (n - 1, acc + 1)\nval r = loop (1000, 0)", 2002},
		{"fun loop (n, acc) = if n = 0 then acc else loop (n - 1, acc + 1)\nval r = loop (1000, 0)", 1002},
	} {
		for _, mode := range []string{"closure", "loaded", "profiled"} {
			got := runKnown(t, tc.src, mode, 0)
			if got.err != "" || !strings.HasSuffix(got.exports, "; 1000") {
				t.Fatalf("%s: exports %q, error %q", mode, got.exports, got.err)
			}
			if got.steps != tc.steps {
				t.Errorf("%s: %d steps, want %d\n%s", mode, got.steps, tc.steps, tc.src)
			}
		}
	}
}
