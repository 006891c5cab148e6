package depend

import (
	"strings"
	"testing"
)

func analyze(t *testing.T, name, src string) *Info {
	t.Helper()
	info, err := Analyze(name, src)
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return info
}

func has(list []string, key string) bool {
	for _, k := range list {
		if k == key {
			return true
		}
	}
	return false
}

func TestDefsCollected(t *testing.T) {
	info := analyze(t, "a", `
		val x = 1
		fun f y = y
		type t = int
		datatype d = C of int
		exception E
		structure S = struct end
		signature G = sig end
		functor F (X : G) = struct end
		local val hidden = 0 in val exposed = hidden end
	`)
	for _, key := range []string{
		KeyVal + "x", KeyVal + "f", KeyTycon + "t", KeyTycon + "d",
		KeyVal + "C", KeyVal + "E", KeyCon + "C", KeyCon + "E",
		KeyStr + "S", KeySig + "G",
		KeyFct + "F", KeyVal + "exposed",
	} {
		if !has(info.Defs, key) {
			t.Errorf("missing def %q in %v", key, info.Defs)
		}
	}
	if has(info.Defs, KeyVal+"hidden") {
		t.Error("local inner binding counted as definition")
	}
}

func TestFreeCollected(t *testing.T) {
	info := analyze(t, "b", `
		val y = x + Other.z
		structure T = S
		structure U = F (S)
		val g : G.t -> alias = fn v => v
	`)
	for _, key := range []string{
		KeyVal + "x", KeyStr + "Other", KeyStr + "S", KeyFct + "F",
		KeyStr + "G", KeyTycon + "alias",
	} {
		if !has(info.Free, key) {
			t.Errorf("missing free %q in %v", key, info.Free)
		}
	}
	// NB: "y" itself IS conservatively free — a val pattern variable
	// could resolve to a constructor defined elsewhere, in which case
	// the dependency edge is semantically required — but only under
	// KeyCon, which only constructor and exception definers match.
	// Graph drops the self-edge; cross-file it orders the definer first.
	if !has(info.Free, KeyCon+"y") || has(info.Free, KeyVal+"y") {
		t.Errorf("pattern variable y not free as a possible constructor only: %v", info.Free)
	}
	// Subsequent *uses* of a bound name are not free.
	info2 := analyze(t, "b2", "fun f n = n\nval used = f 1")
	if countOf(info2.Free, KeyVal+"f") != 0 {
		t.Error("locally bound function counted free at use")
	}
}

func countOf(list []string, key string) int {
	n := 0
	for _, k := range list {
		if k == key {
			n++
		}
	}
	return n
}

func TestGraphAndTopoSort(t *testing.T) {
	infos := []*Info{
		analyze(t, "c.sml", "val r = B.f A.x"),
		analyze(t, "a.sml", "structure A = struct val x = 1 end"),
		analyze(t, "b.sml", "structure B = struct fun f n = n + A.x end"),
	}
	deps := Graph(infos)
	if len(deps["c.sml"]) != 2 {
		t.Errorf("c deps %v", deps["c.sml"])
	}
	if len(deps["b.sml"]) != 1 || deps["b.sml"][0] != "a.sml" {
		t.Errorf("b deps %v", deps["b.sml"])
	}
	order, err := TopoSort(infos)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, info := range order {
		pos[info.Name] = i
	}
	if !(pos["a.sml"] < pos["b.sml"] && pos["b.sml"] < pos["c.sml"]) {
		t.Errorf("order %v", pos)
	}
}

func TestCycleDetected(t *testing.T) {
	infos := []*Info{
		analyze(t, "x.sml", "structure X = struct val v = Y.v end"),
		analyze(t, "y.sml", "structure Y = struct val v = X.v end"),
	}
	_, err := TopoSort(infos)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestShadowingPrefersLatestEarlierDefiner(t *testing.T) {
	infos := []*Info{
		analyze(t, "v1.sml", "structure M = struct val v = 1 end"),
		analyze(t, "v2.sml", "structure M = struct val v = 2 end"),
		analyze(t, "use.sml", "val u = M.v"),
	}
	deps := Graph(infos)
	if len(deps["use.sml"]) != 1 || deps["use.sml"][0] != "v2.sml" {
		t.Errorf("use deps %v, want v2 (the shadowing definer)", deps["use.sml"])
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := Analyze("bad", "val = ="); err == nil {
		t.Error("parse error swallowed")
	}
}

func TestSelfReferenceIgnored(t *testing.T) {
	infos := []*Info{
		analyze(t, "self.sml", "fun f 0 = 0 | f n = f (n - 1)"),
	}
	deps := Graph(infos)
	if len(deps["self.sml"]) != 0 {
		t.Errorf("self-recursion created edge: %v", deps["self.sml"])
	}
}

// TestPatternVariableNotAValueReference is the false cycle a pattern
// variable once made: xs in a.sml's clauses is bound by the pattern,
// so b.sml's top-level xs is no dependency of a.sml.
func TestPatternVariableNotAValueReference(t *testing.T) {
	infos := []*Info{
		analyze(t, "a.sml", "fun f (x :: xs) = xs | f [] = []"),
		analyze(t, "b.sml", "val xs = f [1, 2]\nval _ = print (Int.toString (length xs))"),
	}
	deps := Graph(infos)
	if len(deps["a.sml"]) != 0 {
		t.Errorf("a.sml deps %v, want none", deps["a.sml"])
	}
	if len(deps["b.sml"]) != 1 || deps["b.sml"][0] != "a.sml" {
		t.Errorf("b.sml deps %v, want [a.sml]", deps["b.sml"])
	}
	if _, err := TopoSort(infos); err != nil {
		t.Fatal(err)
	}
}

// TestPatternConstructorOrdersLaterDefiner: a variable pattern that
// names a constructor or exception is a reference to its definer, the
// edge holds when the definer is listed later, and an earlier unit
// that defines the name as a plain value does not take the edge.
func TestPatternConstructorOrdersLaterDefiner(t *testing.T) {
	for _, def := range []string{"datatype color = Red | Green", "exception Red"} {
		infos := []*Info{
			analyze(t, "use.sml", "fun isRed Red = true | isRed _ = false"),
			analyze(t, "plain.sml", "val Red = 0"),
			analyze(t, "def.sml", def),
		}
		deps := Graph(infos)
		if len(deps["use.sml"]) != 1 || deps["use.sml"][0] != "def.sml" {
			t.Errorf("%s: use.sml deps %v, want [def.sml]", def, deps["use.sml"])
		}
		order, err := TopoSort(infos)
		if err != nil {
			t.Fatal(err)
		}
		pos := map[string]int{}
		for i, info := range order {
			pos[info.Name] = i
		}
		if pos["def.sml"] > pos["use.sml"] {
			t.Errorf("%s: order %v, want def.sml before use.sml", def, pos)
		}
	}
}

// TestPatternVariableThenUseIsAReference: a name used free as a value
// anywhere in the unit keeps its value key, even if it first appears
// as a pattern.
func TestPatternVariableThenUseIsAReference(t *testing.T) {
	info := analyze(t, "m.sml", "fun f n = n\nval g = n")
	if !has(info.Free, KeyVal+"n") || has(info.Free, KeyCon+"n") {
		t.Errorf("n used free as a value, keys %v", info.Free)
	}
}
