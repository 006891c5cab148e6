package prof

// Symbolization: lambda terms carry no names (LVar is an int32) and no
// source spans, so function identities are recovered structurally. The
// unit's code is λ(imports).(export-record); the export environment
// says which record slot holds which SML binding, and the term's
// Let/Fix spine says which *lambda.Fn flowed into each slot. Each
// function of the compiled program records the offset of its Fn in the
// unit's lambda segment, which is that Fn's Pos in the decoded term,
// tying names to IDs. Functions not reachable from an
// export slot (local helpers, inner anonymous functions) inherit the
// nearest named ancestor's path with an "<fnN>" suffix; source lines
// come from a lexical scan of the unit source for the binding's
// `fun`/`val` declaration.

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/lambda"
)

type sym struct {
	name string
	line int
}

// maxStrDepth bounds the substructure recursion when naming exported
// structure members.
const maxStrDepth = 6

func symbolizeUnit(code *lambda.Fn, prog *interp.CompiledFn, exports *env.Env, source string) []sym {
	if code == nil || prog == nil {
		return nil
	}
	fns := interp.Funcs(prog)
	idAt := make(map[int32]int32, len(fns))
	for _, f := range fns {
		idAt[f.Pos] = f.ID
	}
	n := len(fns)
	names := make([]string, n)
	names[0] = "<unit>"

	// All Let/Fix bindings of the term, for dereferencing Vars. An
	// LVar bound twice (shadowing) is dropped: a wrong name is worse
	// than a positional one.
	binds := make(map[lambda.LVar]lambda.Exp)
	dup := make(map[lambda.LVar]bool)
	collectBinds(code.Body, binds, dup)
	for lv := range dup {
		delete(binds, lv)
	}

	assign := func(name string, e lambda.Exp) {
		fn, ok := deref(e, binds).(*lambda.Fn)
		if !ok {
			return
		}
		if id, ok := idAt[fn.Pos]; ok && names[id] == "" {
			names[id] = name
		}
	}

	// Walk the export record against the export environment.
	if rec, ok := deref(exportRecord(code.Body, binds), binds).(*lambda.Record); ok && exports != nil {
		nameSlots(exports, rec, "", assign, binds, 0)
	}

	// Unnamed functions inherit the nearest named ancestor's path.
	// Parents precede children in DFS preorder, so one forward pass
	// resolves every chain.
	for id := 1; id < n; id++ {
		if names[id] != "" {
			continue
		}
		base := "<unit>"
		for p := fns[id].Parent; p >= 0; p = fns[p].Parent {
			if names[p] != "" {
				base = names[p]
				break
			}
		}
		if base == "<unit>" {
			names[id] = fmt.Sprintf("<fn%d>", id)
		} else {
			names[id] = fmt.Sprintf("%s.<fn%d>", base, id)
		}
	}

	out := make([]sym, n)
	for id, name := range names {
		out[id] = sym{name: name, line: lineOf(source, name)}
	}
	if n > 0 && out[0].line == 0 {
		out[0].line = 1
	}
	// Synthesized names inherit their named ancestor's line.
	for id := 1; id < n; id++ {
		if out[id].line == 0 {
			if p := fns[id].Parent; p >= 0 {
				out[id].line = out[p].line
			}
		}
	}
	return out
}

// nameSlots assigns export-slot names: value bindings name the slot's
// function directly; structure bindings recurse into the member record
// under the structure's own environment, building dotted paths.
func nameSlots(e *env.Env, rec *lambda.Record, prefix string,
	assign func(string, lambda.Exp), binds map[lambda.LVar]lambda.Exp, depth int) {
	if depth > maxStrDepth {
		return
	}
	for _, ent := range e.Order() {
		switch ent.NS {
		case env.NSVal:
			vb, ok := e.LocalVal(ent.Name)
			if !ok || vb.Slot < 0 || vb.Slot >= len(rec.Fields) {
				continue
			}
			assign(prefix+ent.Name, rec.Fields[vb.Slot])
		case env.NSStr:
			sb, ok := e.LocalStr(ent.Name)
			if !ok || sb.Str == nil || sb.Slot < 0 || sb.Slot >= len(rec.Fields) {
				continue
			}
			sub, ok := deref(rec.Fields[sb.Slot], binds).(*lambda.Record)
			if !ok {
				continue
			}
			nameSlots(sb.Str.Env, sub, prefix+ent.Name+".", assign, binds, depth+1)
		}
	}
}

// exportRecord descends the Let/Fix spine of the unit body to the
// export record (possibly through a Var).
func exportRecord(body lambda.Exp, binds map[lambda.LVar]lambda.Exp) lambda.Exp {
	for i := 0; i < 1<<16; i++ {
		switch b := body.(type) {
		case *lambda.Let:
			body = b.Body
		case *lambda.Fix:
			body = b.Body
		case *lambda.Record:
			return b
		case *lambda.Var:
			e, ok := binds[b.LV]
			if !ok {
				return nil
			}
			body = e
		default:
			return nil
		}
	}
	return nil
}

// deref chases Var→binding chains (bounded, in case of cycles through
// Fix names).
func deref(e lambda.Exp, binds map[lambda.LVar]lambda.Exp) lambda.Exp {
	for i := 0; i < 64; i++ {
		v, ok := e.(*lambda.Var)
		if !ok {
			return e
		}
		b, ok := binds[v.LV]
		if !ok {
			return e
		}
		e = b
	}
	return e
}

// collectBinds records every Let and Fix binding of the term, marking
// LVars bound more than once as duplicates.
func collectBinds(e lambda.Exp, binds map[lambda.LVar]lambda.Exp, dup map[lambda.LVar]bool) {
	switch e := e.(type) {
	case nil:
		return
	case *lambda.Var, *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str,
		*lambda.Char, *lambda.Builtin, *lambda.NewExnTag:
		return
	case *lambda.Record:
		for _, f := range e.Fields {
			collectBinds(f, binds, dup)
		}
	case *lambda.Select:
		collectBinds(e.Rec, binds, dup)
	case *lambda.Fn:
		collectBinds(e.Body, binds, dup)
	case *lambda.Fix:
		for i, lv := range e.Names {
			bindOne(lv, e.Fns[i], binds, dup)
		}
		for _, f := range e.Fns {
			collectBinds(f.Body, binds, dup)
		}
		collectBinds(e.Body, binds, dup)
	case *lambda.App:
		collectBinds(e.Fn, binds, dup)
		collectBinds(e.Arg, binds, dup)
	case *lambda.Let:
		bindOne(e.LV, e.Bind, binds, dup)
		collectBinds(e.Bind, binds, dup)
		collectBinds(e.Body, binds, dup)
	case *lambda.Con:
		collectBinds(e.Arg, binds, dup)
	case *lambda.Decon:
		collectBinds(e.Exp, binds, dup)
	case *lambda.ExnCon:
		collectBinds(e.Tag, binds, dup)
		collectBinds(e.Arg, binds, dup)
	case *lambda.ExnDecon:
		collectBinds(e.Exp, binds, dup)
	case *lambda.If:
		collectBinds(e.Cond, binds, dup)
		collectBinds(e.Then, binds, dup)
		collectBinds(e.Else, binds, dup)
	case *lambda.Switch:
		collectBinds(e.Scrut, binds, dup)
		for _, cs := range e.Cases {
			collectBinds(cs.Body, binds, dup)
		}
		collectBinds(e.Default, binds, dup)
	case *lambda.Prim:
		for _, a := range e.Args {
			collectBinds(a, binds, dup)
		}
	case *lambda.Raise:
		collectBinds(e.Exp, binds, dup)
	case *lambda.Handle:
		collectBinds(e.Body, binds, dup)
		collectBinds(e.Handler, binds, dup)
	}
}

func bindOne(lv lambda.LVar, e lambda.Exp, binds map[lambda.LVar]lambda.Exp, dup map[lambda.LVar]bool) {
	if _, seen := binds[lv]; seen || dup[lv] {
		dup[lv] = true
		return
	}
	binds[lv] = e
}

// lineOf finds the 1-based line declaring name in source: the first
// line whose first token is fun/val/and (optionally fun rec/val rec)
// followed by the binding's base identifier. Dotted and synthesized
// names use their base segment ("Stack.push" → "push"); placeholder
// names resolve to 0.
func lineOf(source, name string) int {
	base := baseIdent(name)
	if base == "" {
		return 0
	}
	line := 1
	for i := 0; i < len(source); line++ {
		j := i
		for j < len(source) && source[j] != '\n' {
			j++
		}
		if declares(source[i:j], base) {
			return line
		}
		i = j + 1
	}
	return 0
}

// baseIdent extracts the searchable identifier from a binding path:
// the last dot segment that is not a synthesized "<...>" placeholder.
func baseIdent(name string) string {
	segs := splitDots(name)
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if s != "" && s[0] != '<' {
			return s
		}
	}
	return ""
}

func splitDots(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func declares(line, ident string) bool {
	s := skipSpace(line)
	var kw string
	switch {
	case hasWord(s, "fun"):
		kw = "fun"
	case hasWord(s, "val"):
		kw = "val"
	case hasWord(s, "and"):
		kw = "and"
	default:
		return false
	}
	s = skipSpace(s[len(kw):])
	if hasWord(s, "rec") {
		s = skipSpace(s[3:])
	}
	if !hasWord(s, ident) {
		return false
	}
	return true
}

func skipSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	return s
}

// hasWord reports whether s starts with word followed by a non-
// identifier character (or nothing).
func hasWord(s, word string) bool {
	if len(s) < len(word) || s[:len(word)] != word {
		return false
	}
	if len(s) == len(word) {
		return true
	}
	c := s[len(word)]
	return !(c == '_' || c == '\'' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9'))
}
