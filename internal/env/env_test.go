package env

import (
	"testing"

	"repro/internal/types"
)

func vb() *ValBind { return &ValBind{Scheme: types.MonoScheme(types.Unit()), Slot: -1} }

func TestDefineLookup(t *testing.T) {
	e := New(nil)
	b := vb()
	e.DefineVal("x", b)
	got, ok := e.LookupVal("x")
	if !ok || got != b {
		t.Fatal("lookup failed")
	}
	if _, ok := e.LookupVal("y"); ok {
		t.Fatal("phantom binding")
	}
}

func TestLayering(t *testing.T) {
	parent := New(nil)
	pb := vb()
	parent.DefineVal("x", pb)
	parent.DefineVal("y", vb())

	child := New(parent)
	cb := vb()
	child.DefineVal("x", cb)

	if got, _ := child.LookupVal("x"); got != cb {
		t.Error("child does not shadow parent")
	}
	if got, _ := child.LookupVal("y"); got == nil {
		t.Error("parent binding not visible")
	}
	if got, _ := parent.LookupVal("x"); got != pb {
		t.Error("parent perturbed by child")
	}
	// Local lookup must not search parents.
	if _, ok := child.LocalVal("y"); ok {
		t.Error("LocalVal searched parent")
	}
}

func TestOrderPreserved(t *testing.T) {
	e := New(nil)
	e.DefineVal("a", vb())
	e.DefineTycon("t", &types.Tycon{Name: "t"})
	e.DefineVal("b", vb())
	e.DefineStr("S", &StrBind{Str: &Structure{Env: New(nil)}})

	order := e.Order()
	want := []Entry{{NSVal, "a"}, {NSTycon, "t"}, {NSVal, "b"}, {NSStr, "S"}}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestShadowingCollapsesOrder(t *testing.T) {
	e := New(nil)
	e.DefineVal("x", vb())
	second := vb()
	e.DefineVal("x", second)
	if len(e.Order()) != 1 {
		t.Errorf("order has %d entries, want 1", len(e.Order()))
	}
	if got, _ := e.LocalVal("x"); got != second {
		t.Error("shadowing did not replace binding")
	}
}

func TestNamespacesIndependent(t *testing.T) {
	e := New(nil)
	e.DefineVal("x", vb())
	e.DefineTycon("x", &types.Tycon{Name: "x"})
	e.DefineStr("x", &StrBind{})
	e.DefineSig("x", &SigBind{Name: "x"})
	e.DefineFct("x", &FctBind{})
	if e.Len() != 5 {
		t.Errorf("len = %d, want 5 (one per namespace)", e.Len())
	}
	if _, ok := e.LookupTycon("x"); !ok {
		t.Error("tycon x lost")
	}
}

func TestCopyInto(t *testing.T) {
	src := New(nil)
	src.DefineVal("a", vb())
	src.DefineVal("b", vb())
	src.DefineTycon("t", &types.Tycon{Name: "t"})

	dst := New(nil)
	dst.DefineVal("pre", vb())
	src.CopyInto(dst)
	if dst.Len() != 4 {
		t.Errorf("dst len %d", dst.Len())
	}
	a1, _ := src.LocalVal("a")
	a2, _ := dst.LocalVal("a")
	if a1 != a2 {
		t.Error("CopyInto copied values instead of sharing bindings")
	}
}

func TestDeepLayering(t *testing.T) {
	e := New(nil)
	bottom := vb()
	e.DefineVal("deep", bottom)
	for i := 0; i < 100; i++ {
		e = New(e)
	}
	got, ok := e.LookupVal("deep")
	if !ok || got != bottom {
		t.Error("deep chain lookup failed")
	}
}

func TestIsExnCon(t *testing.T) {
	plain := vb()
	if plain.IsExnCon() {
		t.Error("plain value is exn con")
	}
	exn := &ValBind{Con: &types.DataCon{IsExn: true}}
	if !exn.IsExnCon() {
		t.Error("exn con not recognized")
	}
	data := &ValBind{Con: &types.DataCon{}}
	if data.IsExnCon() {
		t.Error("data con is exn con")
	}
}

// sink keeps New's result reachable, so the measured allocation stays.
var sink *Env

func TestNewEnvAllocs(t *testing.T) {
	parent := New(nil)
	got := testing.AllocsPerRun(100, func() { sink = New(parent) })
	if got != 1 {
		t.Errorf("New allocates %.0f times, want 1: namespace maps must wait for the first Define", got)
	}
}

// sparseEnvs returns a parent that binds one name in every namespace
// and a child layer that binds only a value, so the child's other four
// namespaces are never made.
func sparseEnvs() (parent, child *Env) {
	parent = New(nil)
	parent.DefineVal("x", vb())
	parent.DefineTycon("t", &types.Tycon{Name: "t"})
	parent.DefineStr("S", &StrBind{Slot: 1})
	parent.DefineSig("SIG", &SigBind{Name: "SIG"})
	parent.DefineFct("F", &FctBind{})
	child = New(parent)
	child.DefineVal("y", vb())
	return parent, child
}

func TestSparseLayer(t *testing.T) {
	parent, child := sparseEnvs()

	// Lookups in the namespaces the child never made fall through.
	if got, _ := child.LookupVal("x"); got == nil {
		t.Error("LookupVal x did not reach the parent")
	}
	ptc, _ := parent.LocalTycon("t")
	if got, ok := child.LookupTycon("t"); !ok || got != ptc {
		t.Error("LookupTycon t did not reach the parent")
	}
	pstr, _ := parent.LocalStr("S")
	if got, ok := child.LookupStr("S"); !ok || got != pstr {
		t.Error("LookupStr S did not reach the parent")
	}
	psig, _ := parent.LocalSig("SIG")
	if got, ok := child.LookupSig("SIG"); !ok || got != psig {
		t.Error("LookupSig SIG did not reach the parent")
	}
	pfct, _ := parent.LocalFct("F")
	if got, ok := child.LookupFct("F"); !ok || got != pfct {
		t.Error("LookupFct F did not reach the parent")
	}

	// Local lookups in them report absent.
	if _, ok := child.LocalTycon("t"); ok {
		t.Error("LocalTycon found a binding in an empty namespace")
	}
	if _, ok := child.LocalStr("S"); ok {
		t.Error("LocalStr found a binding in an empty namespace")
	}
	if _, ok := child.LocalSig("SIG"); ok {
		t.Error("LocalSig found a binding in an empty namespace")
	}
	if _, ok := child.LocalFct("F"); ok {
		t.Error("LocalFct found a binding in an empty namespace")
	}
	if _, ok := child.LocalVal("x"); ok {
		t.Error("LocalVal searched the parent")
	}
	if _, ok := child.LocalVal("y"); !ok {
		t.Error("LocalVal lost the child's own binding")
	}

	// A layer that defines nothing has no order and copies nothing.
	empty := New(parent)
	if len(empty.Order()) != 0 || empty.Len() != 0 {
		t.Errorf("empty layer has order %v", empty.Order())
	}
	dst := New(nil)
	empty.CopyInto(dst)
	if dst.Len() != 0 {
		t.Errorf("copying an empty layer defined %d names", dst.Len())
	}

	// Order and CopyInto see only the child's own value.
	if want := []Entry{{NSVal, "y"}}; len(child.Order()) != 1 || child.Order()[0] != want[0] {
		t.Errorf("child order %v, want %v", child.Order(), want)
	}
	child.CopyInto(dst)
	y, _ := child.LocalVal("y")
	if got, ok := dst.LocalVal("y"); !ok || got != y || dst.Len() != 1 {
		t.Errorf("CopyInto of a sparse layer: dst len %d", dst.Len())
	}
	if _, ok := dst.LookupTycon("t"); ok {
		t.Error("CopyInto copied a parent binding")
	}

	// A later Define makes the namespace in a layer that began empty.
	tc := &types.Tycon{Name: "u"}
	dst.DefineTycon("u", tc)
	if got, ok := dst.LocalTycon("u"); !ok || got != tc {
		t.Error("DefineTycon after an empty start lost the binding")
	}
}

// TestFrozenSparseEnvConcurrentReaders reads one frozen env whose child
// layer has nil namespaces from several goroutines at once; each copies
// the layers into an env of its own. Run under -race.
func TestFrozenSparseEnvConcurrentReaders(t *testing.T) {
	parent, child := sparseEnvs()
	const readers = 8
	done := make(chan struct{})
	for i := 0; i < readers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				_, okv := child.LookupVal("x")
				_, okt := child.LookupTycon("t")
				_, oks := child.LookupStr("S")
				_, okg := child.LookupSig("SIG")
				_, okf := child.LookupFct("F")
				_, local := child.LocalStr("S")
				if !okv || !okt || !oks || !okg || !okf || local {
					t.Error("concurrent lookup in a sparse frozen env went wrong")
					return
				}
				own := New(child)
				child.CopyInto(own)
				parent.CopyInto(own)
				if own.Len() != len(child.Order())+len(parent.Order()) {
					t.Errorf("private copy has %d names", own.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		<-done
	}
}
