package lambda

import (
	"strings"
	"testing"
)

func TestGenFresh(t *testing.T) {
	var g Gen
	a := g.Fresh()
	b := g.Fresh()
	if a == b {
		t.Error("Fresh repeated a variable")
	}
}

func sampleExp() Exp {
	var g Gen
	x := g.Fresh()
	return &Fn{Param: x, Body: &Let{
		LV:   g.Fresh(),
		Bind: &Prim{Op: OpAdd, Args: []Exp{&Var{LV: x}, &Int{Val: 1}}},
		Body: &If{
			Cond: &Prim{Op: OpLt, Args: []Exp{&Var{LV: x}, &Int{Val: 10}}},
			Then: &Con{Tag: 1, Name: "SOME", Arg: &Var{LV: x}},
			Else: &Con{Tag: 0, Name: "NONE"},
		},
	}}
}

func TestStringRendering(t *testing.T) {
	s := String(sampleExp())
	for _, frag := range []string{"fn v1", "%add", "SOME#1", "NONE#0", "if"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering %q lacks %q", s, frag)
		}
	}
	cases := []struct {
		e    Exp
		want string
	}{
		{&Int{Val: -3}, "-3"},
		{&Str{Val: "hi"}, `"hi"`},
		{&Word{Val: 5}, "0w5"},
		{&Record{}, "()"},
		{&Builtin{Name: "Div"}, "$Div"},
		{&Select{Idx: 2, Rec: &Var{LV: 1}}, "v1.2"},
		{&Raise{Exp: &Var{LV: 1}}, "raise(v1)"},
	}
	for _, c := range cases {
		if got := String(c.e); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestSize(t *testing.T) {
	if Size(&Int{Val: 1}) != 1 {
		t.Error("leaf size")
	}
	if got := Size(&App{Fn: &Var{LV: 1}, Arg: &Var{LV: 2}}); got != 3 {
		t.Errorf("app size %d", got)
	}
	full := Size(sampleExp())
	if full < 10 {
		t.Errorf("sample size %d", full)
	}
	// Size covers every node kind without panicking.
	var g Gen
	p := g.Fresh()
	all := []Exp{
		&Fix{Names: []LVar{p}, Fns: []*Fn{{Param: p, Body: &Var{LV: p}}}, Body: &Var{LV: p}},
		&Decon{Exp: &Var{LV: p}},
		&NewExnTag{Name: "E"},
		&ExnCon{Tag: &Builtin{Name: "Div"}, Arg: &Int{Val: 1}},
		&ExnDecon{Exp: &Var{LV: p}},
		&Switch{Kind: SwitchInt, Scrut: &Var{LV: p},
			Cases: []Case{{IntKey: 1, Body: &Int{Val: 1}}}, Default: &Int{Val: 0}},
		&Handle{Body: &Var{LV: p}, Param: p, Handler: &Var{LV: p}},
		&Real{Val: 1.5},
		&Char{Val: 'c'},
	}
	for _, e := range all {
		if Size(e) < 1 {
			t.Errorf("size of %T", e)
		}
		if String(e) == "" {
			t.Errorf("empty rendering of %T", e)
		}
	}
}
