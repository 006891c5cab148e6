// Package repl implements an interactive read-eval-print loop on top of
// the compilation-unit model (§3, §7 of the paper): each top-level
// input is compiled as a small unit against the session's accumulated
// static environment, executed against the accumulated dynamic
// environment, and its exports are folded back into both — the
// "compile-and-execute session" the paper derives from the same
// primitives as separate compilation.
//
// Concurrency: a REPL session is single-threaded by construction —
// one goroutine reads, compiles, and executes each input in turn.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/types"
)

// errorsAs wraps errors.As for the retry path.
func errorsAs(err error, target **compiler.CompileError) bool {
	return errors.As(err, target)
}

// REPL is an interactive session.
type REPL struct {
	Session *compiler.Session
	// Obs, when non-nil, receives one unit span per top-level input
	// (with compile-or-retry and print phases) and the repl.inputs /
	// repl.errors counters — the smlrepl -trace surface.
	Obs     *obs.Collector
	counter int
}

// New builds a REPL with a fresh session; program output (print) goes
// to stdout.
func New(stdout io.Writer) (*REPL, error) {
	s, err := compiler.NewSession(stdout)
	if err != nil {
		return nil, err
	}
	return &REPL{Session: s}, nil
}

// Eval compiles and executes one top-level input, returning the
// printed form of the new bindings. A bare expression is evaluated as
// `val it = <exp>`, as in the classic SML top level.
func (r *REPL) Eval(src string) (string, error) {
	r.counter++
	name := fmt.Sprintf("it%d", r.counter)
	r.Obs.Add("repl.inputs", 1)
	uspan := r.Obs.StartSpan(obs.CatUnit, name)
	defer uspan.End()
	cspan := uspan.Child(obs.CatPhase, "run")
	u, err := r.Session.Run(name, src)
	cspan.End()
	if err != nil {
		// Retry as an expression bound to `it`. Only worthwhile when
		// the failure was syntactic (an expression is not a program).
		var ce *compiler.CompileError
		if errorsAs(err, &ce) {
			rspan := uspan.Child(obs.CatPhase, "retry-as-expression")
			u2, err2 := r.Session.Run(name, "val it = ("+src+"\n)")
			rspan.End()
			if err2 == nil {
				u = u2
				err = nil
			}
		}
		if err != nil {
			r.Obs.Add("repl.errors", 1)
			uspan.Arg("error", err.Error())
			return "", err
		}
	}
	pspan := uspan.Child(obs.CatPhase, "print")
	defer pspan.End()
	var sb strings.Builder
	for _, w := range u.Warnings {
		fmt.Fprintf(&sb, "warning: %s\n", w)
	}
	for _, ent := range u.Env.Order() {
		switch ent.NS {
		case env.NSVal:
			vb, _ := u.Env.LocalVal(ent.Name)
			if vb.Con != nil && !vb.Con.IsExn {
				fmt.Fprintf(&sb, "con %s : %s\n", ent.Name, types.SchemeString(vb.Scheme))
				continue
			}
			if vb.IsExnCon() {
				fmt.Fprintf(&sb, "exception %s\n", ent.Name)
				continue
			}
			val := "-"
			if v, ok := r.Session.Dyn.Lookup(vb.ExportPid); ok {
				val = interp.String(v)
			}
			fmt.Fprintf(&sb, "val %s = %s : %s\n", ent.Name, val, types.SchemeString(vb.Scheme))
		case env.NSTycon:
			tc, _ := u.Env.LocalTycon(ent.Name)
			fmt.Fprintf(&sb, "type %s (%s)\n", ent.Name, tc.Kind)
		case env.NSStr:
			fmt.Fprintf(&sb, "structure %s\n", ent.Name)
		case env.NSSig:
			fmt.Fprintf(&sb, "signature %s\n", ent.Name)
		case env.NSFct:
			fmt.Fprintf(&sb, "functor %s\n", ent.Name)
		}
	}
	return sb.String(), nil
}

// Use handles the `use "file"` directive: the file's contents are
// compiled and executed as one unit in the session.
func (r *REPL) Use(directive string) (string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(directive), "use"))
	path := strings.Trim(rest, `"`)
	if path == "" {
		return "", fmt.Errorf(`usage: use "file.sml";`)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	out, err := r.Eval(string(data))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("[use %s]\n%s", path, out), nil
}

// Interact runs the interactive loop: input accumulates until a line
// ends in ";", then evaluates. "quit;" exits.
func (r *REPL) Interact(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Fprint(out, "- ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimRight(strings.TrimSpace(line), " \t")
		if buf.Len() == 0 && (trimmed == "quit;" || trimmed == ":q") {
			return nil
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			src := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			switch {
			case strings.TrimSpace(src) == "":
			case strings.HasPrefix(strings.TrimSpace(src), "use "):
				// use "file.sml": compile and run a source file in the
				// session, as in the classic top level.
				res, err := r.Use(strings.TrimSpace(src))
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprint(out, res)
				}
			default:
				res, err := r.Eval(src)
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprint(out, res)
				}
			}
			fmt.Fprint(out, "- ")
			continue
		}
		fmt.Fprint(out, "= ")
	}
	return sc.Err()
}
