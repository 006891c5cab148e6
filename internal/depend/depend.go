// Package depend implements the IRM's automatic source dependency
// analysis (§6, §9 of the paper): each source file is scanned for the
// top-level names it defines and the free names it references, and the
// unit dependency DAG is induced by matching references to definers —
// no makefile is written by hand.
//
// Concurrency: Scan and Graph are pure functions of their inputs and
// safe for concurrent use; Info values are read-only once built.
package depend

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/elab"
	"repro/internal/parser"
)

// Info is the dependency-relevant summary of one source file.
type Info struct {
	Name string
	// Decs is the parsed syntax (reused by compilation).
	Decs []ast.Dec
	// Defs lists the top-level names defined, per namespace key
	// ("v:", "c:", "t:", "s:", "g:", "f:" prefixes).
	Defs []string
	// Free lists the free names referenced, same keying.
	Free []string
}

// Namespace key prefixes. A constructor or exception is defined under
// both KeyVal and KeyCon. A name that is free only as a variable
// pattern (`x` in `fn x => ...`) is keyed KeyCon: it is a reference
// only if it names a constructor in scope, so a unit that defines it
// as a plain value must not become a dependency.
const (
	KeyVal   = "v:"
	KeyCon   = "c:"
	KeyTycon = "t:"
	KeyStr   = "s:"
	KeySig   = "g:"
	KeyFct   = "f:"
)

// KeyOpen is a pseudo-definition marker recorded for units containing a
// top-level `open`: the names such a unit re-exports are unknowable
// without elaboration, so the scanner cannot match them to downstream
// free references. Graph turns the marker into conservative barrier
// edges (every later unit depends on the opener), which keeps both the
// cutoff rule and the parallel scheduler's per-unit compile contexts
// sound. The marker lives in Info.Defs so it survives the bin-file
// cache like any other definition key; it can never collide with a
// real name key ("v:", "c:", "t:", "s:", "g:", "f:") and is never
// referenced free.
const KeyOpen = "o:open"

// Analyze parses a source file and computes its definition and free
// sets.
func Analyze(name, source string) (*Info, error) {
	decs, errs := parser.Parse(source)
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s: %v", name, errs[0])
	}
	return FromDecs(name, decs), nil
}

// FromDecs computes the summary of an already parsed file.
func FromDecs(name string, decs []ast.Dec) *Info {
	info := &Info{Name: name, Decs: decs}

	free := elab.FreeOfDecs(decs)
	for _, n := range free.ValOrder {
		if free.PatOnly[n] {
			info.Free = append(info.Free, KeyCon+n)
		} else {
			info.Free = append(info.Free, KeyVal+n)
		}
	}
	for _, n := range free.TyconOrder {
		info.Free = append(info.Free, KeyTycon+n)
	}
	for _, n := range free.StrOrder {
		info.Free = append(info.Free, KeyStr+n)
	}
	for _, n := range free.SigOrder {
		info.Free = append(info.Free, KeySig+n)
	}
	for _, n := range free.FctOrder {
		info.Free = append(info.Free, KeyFct+n)
	}

	seen := map[string]bool{}
	add := func(key string) {
		if !seen[key] {
			seen[key] = true
			info.Defs = append(info.Defs, key)
		}
	}
	for _, d := range decs {
		collectDefs(d, add)
	}
	return info
}

// collectDefs records the top-level names a declaration defines.
func collectDefs(d ast.Dec, add func(string)) {
	switch d := d.(type) {
	case *ast.ValDec:
		for _, vb := range d.Vbs {
			patDefs(vb.Pat, add)
		}
	case *ast.FunDec:
		for _, fb := range d.Fbs {
			add(KeyVal + fb.Name)
		}
	case *ast.TypeDec:
		for _, tb := range d.Tbs {
			add(KeyTycon + tb.Name)
		}
	case *ast.DatatypeDec:
		for _, db := range d.Dbs {
			add(KeyTycon + db.Name)
			for _, cb := range db.Cons {
				add(KeyVal + cb.Name)
				add(KeyCon + cb.Name)
			}
		}
		for _, tb := range d.WithType {
			add(KeyTycon + tb.Name)
		}
	case *ast.AbstypeDec:
		for _, db := range d.Dbs {
			add(KeyTycon + db.Name)
		}
		for _, tb := range d.WithType {
			add(KeyTycon + tb.Name)
		}
		for _, sub := range d.Body {
			collectDefs(sub, add)
		}
	case *ast.DatatypeReplDec:
		add(KeyTycon + d.Name)
	case *ast.ExceptionDec:
		for _, eb := range d.Ebs {
			add(KeyVal + eb.Name)
			add(KeyCon + eb.Name)
		}
	case *ast.LocalDec:
		for _, sub := range d.Outer {
			collectDefs(sub, add)
		}
	case *ast.SeqDec:
		for _, sub := range d.Decs {
			collectDefs(sub, add)
		}
	case *ast.OpenDec:
		// Opened names are unknowable without elaboration; they cannot
		// contribute matchable definitions. Record the barrier marker
		// instead — Graph makes every later unit depend on this one.
		add(KeyOpen)
	case *ast.StructureDec:
		for _, sb := range d.Sbs {
			add(KeyStr + sb.Name)
		}
	case *ast.SignatureDec:
		for _, sb := range d.Sbs {
			add(KeySig + sb.Name)
		}
	case *ast.FunctorDec:
		for _, fb := range d.Fbs {
			add(KeyFct + fb.Name)
		}
	}
}

func patDefs(p ast.Pat, add func(string)) {
	switch p := p.(type) {
	case *ast.VarPat:
		if !p.Name.IsQualified() {
			add(KeyVal + p.Name.Base())
		}
	case *ast.ConPat:
		patDefs(p.Arg, add)
	case *ast.RecordPat:
		for _, f := range p.Fields {
			patDefs(f.Pat, add)
		}
	case *ast.AsPat:
		add(KeyVal + p.Name)
		patDefs(p.Pat, add)
	case *ast.TypedPat:
		patDefs(p.Pat, add)
	}
}

// Graph induces unit-level dependency edges: unit U depends on unit V
// when V defines a name U references free and no earlier definition
// shadows it. Duplicate definers are resolved to the later file (which
// shadows), matching top-level evaluation order.
func Graph(infos []*Info) map[string][]string {
	// definers maps a key to the ordered list of files defining it.
	definers := map[string][]string{}
	fileIdx := map[string]int{}
	for i, info := range infos {
		fileIdx[info.Name] = i
		for _, key := range info.Defs {
			definers[key] = append(definers[key], info.Name)
		}
	}

	// Units with a top-level `open` (KeyOpen marker) re-export names the
	// scanner cannot see, so every unit after one in file order gets a
	// conservative barrier edge onto it: the opener's exports are part
	// of the downstream unit's potential imports, for both scheduling
	// and the cutoff rule.
	var barriers []string
	for _, info := range infos {
		for _, key := range info.Defs {
			if key == KeyOpen {
				barriers = append(barriers, info.Name)
				break
			}
		}
	}

	deps := map[string][]string{}
	for _, info := range infos {
		seen := map[string]bool{}
		for _, b := range barriers {
			if b != info.Name && fileIdx[b] < fileIdx[info.Name] {
				seen[b] = true
				deps[info.Name] = append(deps[info.Name], b)
			}
		}
		for _, key := range info.Free {
			// Prefer the latest definer listed before this file (it
			// shadows earlier ones); fall back to a forward definer,
			// which the topological sort will order or reject.
			chosen, chosenIdx := "", -1
			fallback := ""
			for _, definer := range definers[key] {
				if definer == info.Name {
					continue
				}
				di := fileIdx[definer]
				if di < fileIdx[info.Name] {
					if di > chosenIdx {
						chosen, chosenIdx = definer, di
					}
				} else if fallback == "" {
					fallback = definer
				}
			}
			if chosen == "" {
				chosen = fallback
			}
			if chosen != "" && !seen[chosen] {
				seen[chosen] = true
				deps[info.Name] = append(deps[info.Name], chosen)
			}
		}
		sort.Strings(deps[info.Name])
	}
	return deps
}

// TopoSort orders the files so definers precede users. It returns an
// error naming the cycle members if the graph is cyclic. Ties keep the
// original file order.
func TopoSort(infos []*Info) ([]*Info, error) {
	deps := Graph(infos)
	byName := map[string]*Info{}
	for _, info := range infos {
		byName[info.Name] = info
	}

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var order []*Info
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("dependency cycle through %s", name)
		case black:
			return nil
		}
		color[name] = gray
		for _, d := range deps[name] {
			if err := visit(d); err != nil {
				return fmt.Errorf("%v <- %s", err, name)
			}
		}
		color[name] = black
		order = append(order, byName[name])
		return nil
	}
	for _, info := range infos {
		if err := visit(info.Name); err != nil {
			return nil, err
		}
	}
	return order, nil
}
