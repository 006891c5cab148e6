// Differential fuzzing of the compiled-closure engine against the
// reference tree walker (DESIGN.md §4j): on any source, executing the
// unit through Machine.Eval and executing its compiled form must print
// the same bytes, fail with the same error, and leave the same export
// values. Step budgets are the one sanctioned divergence — the two
// count steps at different granularities — so budget-exceeded runs are
// skipped, not compared.
package repro

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dynenv"
	"repro/internal/interp"
	"repro/internal/workload"
)

// execTree is compiler.Execute with the reference tree walker in place
// of the compiled form: it evaluates the unit's term to a closure,
// applies that to the import vector, and binds the exports. Its errors
// read as Execute's do.
func execTree(m *interp.Machine, u *compiler.Unit, dyn *dynenv.Env) error {
	imports := make(interp.RecordV, len(u.Imports))
	for i, p := range u.Imports {
		v, err := dyn.MustLookup(p)
		if err != nil {
			return fmt.Errorf("execute %s: %v", u.Name, err)
		}
		imports[i] = v
	}
	closure, err := m.Eval(u.Code, nil)
	var result interp.Value
	if err == nil {
		result, err = m.Apply(closure, imports)
	}
	if err != nil {
		return fmt.Errorf("execute %s: %v", u.Name, err)
	}
	recv, ok := result.(interp.RecordV)
	if !ok && u.NumSlots > 0 {
		return fmt.Errorf("execute %s: code returned non-record", u.Name)
	}
	if len(recv) != u.NumSlots {
		return fmt.Errorf("execute %s: export record has %d slots, expected %d",
			u.Name, len(recv), u.NumSlots)
	}
	for i, v := range recv {
		dyn.Bind(u.ExportPid(i), v)
	}
	return nil
}

// execWith compiles src in a fresh session and executes it with exec,
// returning what an observer can distinguish: printed output, the
// rendered dynamic environment, and the error string ("" = none).
func execWith(exec func(*interp.Machine, *compiler.Unit, *dynenv.Env) error, src string) (stdout, exports, errStr string) {
	var out strings.Builder
	s, err := compiler.NewSession(&out)
	if err != nil {
		return "", "", "session: " + err.Error()
	}
	// Bound divergence. Kept small so the deepest budget-respecting
	// recursion stays far from the Go stack limit.
	s.Machine.MaxSteps = 200_000
	u, err := s.Compile("fuzz.sml", src)
	if err == nil {
		err = exec(s.Machine, u, s.Dyn)
	}
	if err != nil {
		return out.String(), "", err.Error()
	}
	pids := s.Dyn.Pids()
	lines := make([]string, 0, len(pids))
	for _, p := range pids {
		v, ok := s.Dyn.Lookup(p)
		if !ok {
			continue
		}
		lines = append(lines, p.String()+"="+interp.String(v))
	}
	sort.Strings(lines)
	return out.String(), strings.Join(lines, "\n"), ""
}

func FuzzExecTreeVsClosure(f *testing.F) {
	f.Add("val x = 1 + 2")
	f.Add("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval r = fib 12")
	f.Add("val _ = print \"hello\\n\" val _ = print (Int.toString 42)")
	f.Add("exception Boom of int\nval r = (raise Boom 7) handle Boom n => n")
	f.Add("val xs = map (fn x => x * x) [1, 2, 3]")
	f.Add("val d = 1 div 0")
	f.Add("val v = (100000000000000000 * 100000) handle Overflow => 0")
	f.Add("fun loop n = loop (n + 1)\nval _ = loop 0")
	f.Add("datatype t = A | B of int\nfun show A = \"A\" | show (B n) = Int.toString n\nval s = show (B 3) ^ show A")
	for _, file := range workload.Generate(workload.Small()).Files {
		f.Add(file.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tOut, tExp, tErr := execWith(execTree, src)
		cOut, cExp, cErr := execWith(compiler.Execute, src)
		if strings.Contains(tErr, "step budget") || strings.Contains(cErr, "step budget") {
			t.Skip("step budget reached; step granularity differs between the two")
		}
		if tErr != cErr {
			t.Fatalf("error mismatch:\ntree:    %q\nclosure: %q\nsource:\n%s", tErr, cErr, src)
		}
		if tOut != cOut {
			t.Fatalf("output mismatch:\ntree:    %q\nclosure: %q\nsource:\n%s", tOut, cOut, src)
		}
		if tExp != cExp {
			t.Fatalf("export mismatch:\ntree:\n%s\nclosure:\n%s\nsource:\n%s", tExp, cExp, src)
		}
	})
}
