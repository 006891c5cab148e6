// Flag-surface pin: every binary and every irm subcommand, run with
// -h, must print exactly the flags (name, type, default) recorded in
// testdata/flags.golden. Regenerate deliberately with
// `go test -run TestFlagSurface . -args -update-flags`.
package repro

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update-flags", false, "rewrite testdata/flags.golden from the current binaries")

// flagSurfaceCommands lists every command with a flag set, as the
// argument vectors that precede -h.
var flagSurfaceCommands = [][]string{
	{"irm", "build"}, {"irm", "profile"}, {"irm", "daemon"}, {"irm", "watch"},
	{"irm", "serve"}, {"irm", "history"}, {"irm", "top"}, {"irm", "gen"},
	{"irm", "deps"}, {"irm", "collision"},
	{"smlc"}, {"smlrun"}, {"smlrepl"},
}

// helpFlag is one flag as the flag package's PrintDefaults shows it.
type helpFlag struct{ name, typ, def string }

var defaultPat = regexp.MustCompile(` \(default (.*)\)$`)

// parseHelp extracts the flags from a -h listing.
func parseHelp(out string) []helpFlag {
	var flags []helpFlag
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "    \t") && len(flags) > 0 {
			if m := defaultPat.FindStringSubmatch(line); m != nil {
				flags[len(flags)-1].def = m[1]
			}
			continue
		}
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		head, usage, _ := strings.Cut(line[3:], "\t")
		name, typ, _ := strings.Cut(head, " ")
		if typ == "" {
			typ = "bool"
		}
		f := helpFlag{name: name, typ: typ}
		if m := defaultPat.FindStringSubmatch(usage); m != nil {
			f.def = m[1]
		}
		flags = append(flags, f)
	}
	return flags
}

// helpOf runs one command with -h and returns its parsed flags.
func helpOf(t *testing.T, tools map[string]string, argv []string) []helpFlag {
	t.Helper()
	args := append(append([]string(nil), argv[1:]...), "-h")
	out, err := exec.Command(tools[argv[0]], args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", strings.Join(argv, " "), err, out)
	}
	if !strings.Contains(string(out), "Usage of ") {
		t.Fatalf("%s -h printed no usage:\n%s", strings.Join(argv, " "), out)
	}
	return parseHelp(string(out))
}

func TestFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t, "irm", "smlc", "smlrun", "smlrepl")
	var b strings.Builder
	usage := irmUsage(t, tools["irm"])
	for _, argv := range flagSurfaceCommands {
		flags := helpOf(t, tools, argv)
		if argv[0] == "irm" {
			checkUsageLine(t, argv[1], usage[argv[1]], flags)
		}
		if len(flags) == 0 {
			fmt.Fprintf(&b, "%s\t(no flags)\n", strings.Join(argv, " "))
		}
		for _, f := range flags {
			fmt.Fprintf(&b, "%s\t-%s\t%s\t%s\n", strings.Join(argv, " "), f.name, f.typ, f.def)
		}
	}
	got := b.String()
	const golden = "testdata/flags.golden"
	if *updateFlags {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("flag surface differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// irmUsage runs irm without arguments and returns its usage text, one
// entry per subcommand with continuation lines joined. The cmd/irm
// package doc must carry the same synopsis.
func irmUsage(t *testing.T, irm string) map[string]string {
	t.Helper()
	out, _ := exec.Command(irm).CombinedOutput()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 || lines[0] != "usage:" {
		t.Fatalf("irm usage text:\n%s", out)
	}
	src, err := os.ReadFile("cmd/irm/main.go")
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, l := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(l, "//\tirm ") || strings.HasPrefix(l, "//\t   ") {
			doc = append(doc, strings.Join(strings.Fields(l[2:]), " "))
		}
	}
	usage := map[string]string{}
	var sub string
	for i, l := range lines[1:] {
		norm := strings.Join(strings.Fields(l), " ")
		if i >= len(doc) || doc[i] != norm {
			t.Errorf("cmd/irm package doc synopsis line %d differs from usage line %q", i+1, norm)
		}
		if strings.HasPrefix(l, "  irm ") {
			sub = strings.Fields(l)[1]
		}
		usage[sub] += " " + norm
	}
	if len(doc) != len(lines)-1 {
		t.Errorf("cmd/irm package doc synopsis has %d lines, usage has %d", len(doc), len(lines)-1)
	}
	return usage
}

// checkUsageLine asserts that the usage synopsis of one irm
// subcommand names every flag it registers.
func checkUsageLine(t *testing.T, sub, line string, flags []helpFlag) {
	t.Helper()
	for _, f := range flags {
		pat := regexp.MustCompile(`[\[ |]-` + regexp.QuoteMeta(f.name) + `[ \]]`)
		if !pat.MatchString(line + " ") {
			t.Errorf("irm %s registers -%s but its usage line omits it:%s", sub, f.name, line)
		}
	}
}
