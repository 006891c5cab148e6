// Command docscheck is CI's docs-health gate. Three checks:
//
//   - Package docs: every package under internal/ must have a package
//     doc comment, and that comment must state the package's
//     concurrency contract (a "Concurrency:" paragraph) — the
//     discipline ARCHITECTURE.md §5 describes.
//   - Counter registry: the DESIGN.md §4d counter table must match
//     the counters non-test code actually emits, in both directions:
//     the string-literal names passed to Add/Count, plus the
//     time.<name>_ns counter of every phase span (a string literal
//     passed with obs.CatPhase to Child/StartSpan). A counter the code
//     emits but the table omits is undocumented telemetry; a table
//     entry no code emits is documentation rot. Either fails CI.
//   - Protocol registry: the PROTOCOL.md §2 endpoint table must match
//     the routes the daemon mux actually registers (HandleFunc/Handle
//     string literals in internal/daemon and internal/obsserve), in
//     both directions, including the verb: "GET /path" registrations
//     must be documented as GET, method-less ones as ANY.
//
// Exits non-zero listing every failure.
//
// Concurrency: a single-goroutine command-line tool.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

func main() {
	root := "internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := os.ReadDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	var failed []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, d.Name())
		doc, err := packageDoc(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", dir, err)
			os.Exit(1)
		}
		switch {
		case doc == "":
			failed = append(failed, dir+": no package doc comment")
		case !strings.Contains(doc, "Concurrency:"):
			failed = append(failed, dir+": package doc states no concurrency contract (want a \"Concurrency:\" paragraph)")
		}
	}
	failed = append(failed, checkCounterRegistry(root)...)
	failed = append(failed, checkProtocolRegistry(root)...)
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(os.Stderr, "docscheck:", f)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s) failing docs health\n", len(failed))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages healthy, counter and protocol registries in sync\n", len(dirs))
}

// counterPat is the shape of a registry counter name: at least one
// dot-separated namespace, lower-case (matching the DESIGN.md §4d
// convention). Filters out ordinary strings passed to Add-named
// methods elsewhere.
var counterPat = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_.]+)+$`)

// checkCounterRegistry diffs the DESIGN.md §4d table against the
// counters emitted by non-test code under root (internal/) and cmd/.
func checkCounterRegistry(root string) []string {
	documented, err := tableCounters("DESIGN.md")
	if err != nil {
		return []string{fmt.Sprintf("counter registry: %v", err)}
	}
	if len(documented) == 0 {
		return []string{"counter registry: no counter table found in DESIGN.md §4d"}
	}
	emitted, err := emittedCounters(root, "cmd")
	if err != nil {
		return []string{fmt.Sprintf("counter registry: %v", err)}
	}
	var failed []string
	for name, where := range emitted {
		if !documented[name] {
			failed = append(failed, fmt.Sprintf(
				"counter registry: %s is emitted (%s) but missing from the DESIGN.md §4d table", name, where))
		}
	}
	for name := range documented {
		if _, ok := emitted[name]; !ok {
			failed = append(failed, fmt.Sprintf(
				"counter registry: %s is in the DESIGN.md §4d table but no non-test code emits it", name))
		}
	}
	sort.Strings(failed)
	return failed
}

// tableRow matches a registry table line: | `prefix.` | `c1 c2 ...` ...
var tableRow = regexp.MustCompile("^\\| `([a-z_.]+)` \\| `([a-z0-9_. ]+)`")

// tableCounters parses the §4d table into the set of fully qualified
// counter names it documents.
func tableCounters(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		m := tableRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		prefix := m[1]
		for _, c := range strings.Fields(m[2]) {
			out[prefix+c] = true
		}
	}
	return out, nil
}

// emittedCounters walks every non-test Go file under the roots and
// collects string literals that look like counter names passed to a
// call whose method is named Add or Count, and the phase counter of
// every phase-span name passed with CatPhase to Child or StartSpan.
// Returns name -> one emitting position (for the error message).
func emittedCounters(roots ...string) (map[string]string, error) {
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				record := func(counter string, at ast.Expr) {
					if _, seen := out[counter]; !seen {
						out[counter] = fset.Position(at.Pos()).String()
					}
				}
				switch bareName(call.Fun) {
				case "Add", "Count":
					for _, arg := range call.Args {
						if s, ok := stringLit(arg); ok && counterPat.MatchString(s) {
							record(s, arg)
						}
					}
				case "Child", "StartSpan":
					// A phase name outside [a-z_] makes a counter the
					// table cannot document, so it fails as undocumented.
					if len(call.Args) == 2 && bareName(call.Args[0]) == "CatPhase" {
						if s, ok := stringLit(call.Args[1]); ok {
							record(obs.PhaseCounter(s), call.Args[1])
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// protocolRow matches a PROTOCOL.md §2 endpoint table line:
// | `VERB` | `/path` | ...
var protocolRow = regexp.MustCompile("^\\| `(GET|POST|PUT|DELETE|ANY)` \\| `(/[^`]*)` \\|")

// routePat matches the mux patterns the daemon registers: an optional
// method prefix and a rooted path.
var routePat = regexp.MustCompile(`^(?:(GET|POST|PUT|DELETE) )?(/.*)$`)

// checkProtocolRegistry diffs the PROTOCOL.md endpoint table against
// the routes registered on the daemon mux (internal/daemon) and the
// telemetry mux it falls through to (internal/obsserve). The bare "/"
// fallback mount is wiring, not an endpoint, and is skipped.
func checkProtocolRegistry(root string) []string {
	documented, err := protocolTable("PROTOCOL.md")
	if err != nil {
		return []string{fmt.Sprintf("protocol registry: %v", err)}
	}
	if len(documented) == 0 {
		return []string{"protocol registry: no endpoint table found in PROTOCOL.md §2"}
	}
	registered, err := registeredRoutes(
		filepath.Join(root, "daemon"), filepath.Join(root, "obsserve"))
	if err != nil {
		return []string{fmt.Sprintf("protocol registry: %v", err)}
	}
	var failed []string
	for route, where := range registered {
		if !documented[route] {
			failed = append(failed, fmt.Sprintf(
				"protocol registry: %s is registered (%s) but missing from the PROTOCOL.md §2 table", route, where))
		}
	}
	for route := range documented {
		if _, ok := registered[route]; !ok {
			failed = append(failed, fmt.Sprintf(
				"protocol registry: %s is in the PROTOCOL.md §2 table but no mux registers it", route))
		}
	}
	sort.Strings(failed)
	return failed
}

// protocolTable parses the PROTOCOL.md endpoint table into a set of
// "VERB /path" route keys.
func protocolTable(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		m := protocolRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		out[m[1]+" "+m[2]] = true
	}
	return out, nil
}

// registeredRoutes walks the non-test Go files of the given package
// dirs and collects the mux patterns passed as the first string
// literal of HandleFunc/Handle calls, as "VERB /path" keys (ANY for a
// method-less registration). Returns route -> one registering
// position.
func registeredRoutes(dirs ...string) (map[string]string, error) {
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := bareName(call.Fun)
				if (name != "HandleFunc" && name != "Handle") || len(call.Args) == 0 {
					return true
				}
				s, ok := stringLit(call.Args[0])
				if !ok {
					return true
				}
				m := routePat.FindStringSubmatch(s)
				if m == nil || m[2] == "/" { // skip the fallback mount
					return true
				}
				verb := m[1]
				if verb == "" {
					verb = "ANY"
				}
				route := verb + " " + m[2]
				if _, seen := out[route]; !seen {
					out[route] = fset.Position(call.Args[0].Pos()).String()
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bareName returns the bare name of an identifier or selector
// expression: a called function or method (call.Fun), or a constant
// such as obs.CatPhase.
func bareName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// packageDoc returns the concatenated package doc comments of the
// non-test Go files in dir ("" if none).
func packageDoc(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
	var docs []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return "", err
		}
		if f.Doc != nil {
			docs = append(docs, f.Doc.Text())
		}
	}
	return strings.Join(docs, "\n"), nil
}
