package cli

import (
	"flag"
	"testing"
)

func TestGroupArg(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		group       string
		jobs, nargs int
	}{
		{[]string{"g.cm", "-j", "3"}, "g.cm", 3, 0},
		{[]string{"-j", "3", "g.cm"}, "g.cm", 3, 1},
		{[]string{"-j", "3"}, "", 3, 0},
		{[]string{"-j", "3", "a.cm", "b.cm"}, "", 3, 2},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := New()
		f.Register(fs, "j")
		if got := GroupArg(fs, tc.args); got != tc.group || f.Jobs != tc.jobs || fs.NArg() != tc.nargs {
			t.Errorf("GroupArg(%q) = %q, -j %d, %d args; want %q, %d, %d",
				tc.args, got, f.Jobs, fs.NArg(), tc.group, tc.jobs, tc.nargs)
		}
	}
}

// TestRegisterDefaults: each shared flag defaults to its field's value
// at registration, so a command keeps its own defaults.
func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := New()
	f.Report = "text"
	f.Register(fs, "store", "policy", "report", "profile-period")
	for name, want := range map[string]string{
		"store": DefaultStore, "policy": "cutoff", "report": "text", "profile-period": "0",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	if err := fs.Parse([]string{"-store", "s", "-report", "json"}); err != nil {
		t.Fatal(err)
	}
	if f.Store != "s" || f.Report != "json" {
		t.Errorf("parsed store %q report %q", f.Store, f.Report)
	}
}
