// Package parser implements a recursive-descent parser for the Standard
// ML subset: the full core language (with user-declarable infix
// operators resolved during parsing) and the module language
// (structures, signatures, functors, transparent and opaque ascription).
//
// Concurrency: Parse allocates all its state per call and is safe for
// concurrent use.
package parser

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Fixity records the parsing status of an identifier.
type Fixity struct {
	Prec  int  // 0..9
	Right bool // right-associative
	Infix bool // false = nonfix
}

// DefaultFixities returns the initial fixity environment of the SML
// top-level basis.
func DefaultFixities() map[string]Fixity {
	fix := map[string]Fixity{}
	set := func(prec int, right bool, names ...string) {
		for _, n := range names {
			fix[n] = Fixity{Prec: prec, Right: right, Infix: true}
		}
	}
	set(7, false, "*", "/", "div", "mod", "quot", "rem")
	set(6, false, "+", "-", "^")
	set(5, true, "::", "@")
	set(4, false, "=", "<>", ">", ">=", "<", "<=")
	set(3, false, ":=", "o")
	set(0, false, "before")
	return fix
}

// Parser parses a single compilation unit.
type Parser struct {
	lx     *lexer.Lexer
	tok    token.Token
	peeked *token.Token
	fix    map[string]Fixity
	errors []*Error
	// names holds the one-component Parts slice of each unqualified
	// identifier seen so far (see single).
	names map[string][]string
}

// bailout is the sentinel panic value for error recovery.
type bailout struct{}

// New creates a parser over src with the default basis fixities.
func New(src string) *Parser {
	p := &Parser{lx: lexer.New(src), fix: DefaultFixities()}
	p.next()
	return p
}

// Parse parses a whole compilation unit: a sequence of top-level
// declarations. It returns the declarations and any syntax or lexical
// errors.
func Parse(src string) (decs []ast.Dec, errs []*Error) {
	p := New(src)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			errs = p.allErrors()
		}
	}()
	decs = p.parseProgram()
	return decs, p.allErrors()
}

func (p *Parser) allErrors() []*Error {
	errs := p.errors
	for _, le := range p.lx.Errors() {
		errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	return errs
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	panic(bailout{})
}

func (p *Parser) next() {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return
	}
	p.tok = p.lx.Next()
}

// peek returns the token after the current one without consuming.
func (p *Parser) peek() token.Token {
	if p.peeked == nil {
		t := p.lx.Next()
		p.peeked = &t
	}
	return *p.peeked
}

func (p *Parser) at(k token.Kind) bool { return p.tok.Kind == k }

func (p *Parser) eat(k token.Kind) token.Token {
	if p.tok.Kind != k {
		p.errorf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------

// splitLong splits a dotted identifier text into components.
func splitLong(text string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '.' {
			parts = append(parts, text[start:i])
			start = i + 1
		}
	}
	return append(parts, text[start:])
}

// single returns the Parts slice of the unqualified identifier name.
// A parse makes it once per distinct name and every LongID naming it
// shares it; nothing writes a LongID's parts.
func (p *Parser) single(name string) []string {
	parts, ok := p.names[name]
	if !ok {
		if p.names == nil {
			p.names = map[string][]string{}
		}
		parts = []string{name}
		p.names[name] = parts
	}
	return parts
}

// parseLongID parses a possibly qualified value/constructor identifier.
func (p *Parser) parseLongID() ast.LongID {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.IDENT:
		var parts []string
		if indexByte(p.tok.Text, '.') >= 0 {
			parts = splitLong(p.tok.Text)
		} else {
			parts = p.single(p.tok.Text)
		}
		p.next()
		return ast.LongID{Parts: parts, Pos: pos}
	case token.SYMID:
		id := ast.LongID{Parts: p.single(p.tok.Text), Pos: pos}
		p.next()
		return id
	case token.ASTERISK:
		p.next()
		return ast.LongID{Parts: p.single("*"), Pos: pos}
	case token.EQUALS:
		p.next()
		return ast.LongID{Parts: p.single("="), Pos: pos}
	}
	p.errorf(pos, "expected identifier, found %s", p.tok)
	panic("unreachable")
}

// parseName parses an unqualified identifier (alphanumeric or symbolic).
func (p *Parser) parseName() string {
	switch p.tok.Kind {
	case token.IDENT:
		if idx := indexByte(p.tok.Text, '.'); idx >= 0 {
			p.errorf(p.tok.Pos, "qualified identifier %q not allowed here", p.tok.Text)
		}
		name := p.tok.Text
		p.next()
		return name
	case token.SYMID:
		name := p.tok.Text
		p.next()
		return name
	case token.ASTERISK:
		p.next()
		return "*"
	}
	p.errorf(p.tok.Pos, "expected identifier, found %s", p.tok)
	panic("unreachable")
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// fixityOf returns the fixity of an unqualified identifier; qualified
// names are always nonfix.
func (p *Parser) fixityOf(id ast.LongID) (Fixity, bool) {
	if id.IsQualified() {
		return Fixity{}, false
	}
	f, ok := p.fix[id.Parts[0]]
	return f, ok && f.Infix
}

// ---------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------

// parseTy parses a type expression: tuple * arrow levels over
// constructor application.
func (p *Parser) parseTy() ast.Ty {
	t := p.parseTupleTy()
	if p.accept(token.ARROW) {
		return &ast.ArrowTy{From: t, To: p.parseTy()}
	}
	return t
}

func (p *Parser) parseTupleTy() ast.Ty {
	pos := p.tok.Pos
	t := p.parseAppTy()
	if !p.at(token.ASTERISK) {
		return t
	}
	elems := []ast.Ty{t}
	for p.accept(token.ASTERISK) {
		elems = append(elems, p.parseAppTy())
	}
	return ast.TupleTy(elems, pos)
}

// parseAppTy parses postfix type-constructor application: 'a list list.
func (p *Parser) parseAppTy() ast.Ty {
	t := p.parseAtTy()
	for p.at(token.IDENT) {
		con := p.parseLongID()
		t = &ast.ConTy{Args: []ast.Ty{t}, Con: con}
	}
	return t
}

func (p *Parser) parseAtTy() ast.Ty {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.TYVAR:
		name := p.tok.Text
		p.next()
		return &ast.VarTy{Name: name, Pos: pos}
	case token.IDENT:
		con := p.parseLongID()
		return &ast.ConTy{Con: con}
	case token.LBRACE:
		p.next()
		var fields []ast.RecordTyField
		if !p.at(token.RBRACE) {
			for {
				label := p.parseLabel()
				p.eat(token.COLON)
				fields = append(fields, ast.RecordTyField{Label: label, Ty: p.parseTy()})
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.eat(token.RBRACE)
		return &ast.RecordTy{Fields: fields, Pos: pos}
	case token.LPAREN:
		p.next()
		t := p.parseTy()
		if p.accept(token.COMMA) {
			args := []ast.Ty{t}
			for {
				args = append(args, p.parseTy())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.eat(token.RPAREN)
			con := p.parseLongID()
			return &ast.ConTy{Args: args, Con: con}
		}
		p.eat(token.RPAREN)
		return t
	}
	p.errorf(pos, "expected type, found %s", p.tok)
	panic("unreachable")
}

// parseLabel parses a record label: an identifier or a positive integer.
func (p *Parser) parseLabel() string {
	switch p.tok.Kind {
	case token.IDENT:
		return p.parseName()
	case token.INT:
		text := p.tok.Text
		p.next()
		return text
	}
	p.errorf(p.tok.Pos, "expected record label, found %s", p.tok)
	panic("unreachable")
}

// parseTyVarSeq parses an optional type-variable sequence:
// 'a | ('a, 'b) | nothing.
func (p *Parser) parseTyVarSeq() []string {
	if p.at(token.TYVAR) {
		name := p.tok.Text
		p.next()
		return []string{name}
	}
	if p.at(token.LPAREN) && p.peek().Kind == token.TYVAR {
		p.next()
		var names []string
		for {
			names = append(names, p.eat(token.TYVAR).Text)
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.eat(token.RPAREN)
		return names
	}
	return nil
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

// patItem is an element in the infix-resolution buffer for patterns.
type patItem struct {
	pat ast.Pat    // nil for operators
	op  ast.LongID // infix constructor
	fix Fixity
}

// parsePat parses a pattern including infix constructors, layered
// patterns, and type constraints.
func (p *Parser) parsePat() ast.Pat {
	pat := p.parseInfixPat()
	for {
		switch p.tok.Kind {
		case token.COLON:
			p.next()
			pat = &ast.TypedPat{Pat: pat, Ty: p.parseTy()}
		case token.AS:
			// Layered pattern: the left side must be a variable (possibly
			// typed).
			name, ok := patVarName(pat)
			if !ok {
				p.errorf(p.tok.Pos, "left of 'as' must be a variable")
			}
			pos := p.tok.Pos
			p.next()
			inner := p.parsePat()
			pat = &ast.AsPat{Name: name, Pat: inner, Pos: pos}
		default:
			return pat
		}
	}
}

// patVarName extracts the variable name of a (possibly typed) variable
// pattern.
func patVarName(pat ast.Pat) (string, bool) {
	switch q := pat.(type) {
	case *ast.VarPat:
		if !q.Name.IsQualified() {
			return q.Name.Base(), true
		}
	case *ast.TypedPat:
		return patVarName(q.Pat)
	}
	return "", false
}

// parseInfixPat resolves infix constructor patterns (h :: t).
func (p *Parser) parseInfixPat() ast.Pat {
	var buf [infixBuf]patItem
	items := buf[:0]
	for {
		if p.atPatStart() {
			if id, isInfix := p.atInfixID(); isInfix {
				fx, _ := p.fixityOf(id)
				p.next()
				items = append(items, patItem{op: id, fix: fx})
				continue
			}
			ap := p.parseAppPat()
			items = append(items, patItem{pat: ap})
			continue
		}
		break
	}
	if len(items) == 0 {
		p.errorf(p.tok.Pos, "expected pattern, found %s", p.tok)
	}
	return p.resolvePatItems(items)
}

// atInfixID reports whether the current token is an unqualified
// identifier with infix status (without consuming it).
func (p *Parser) atInfixID() (ast.LongID, bool) {
	var name string
	switch p.tok.Kind {
	case token.IDENT:
		if indexByte(p.tok.Text, '.') >= 0 {
			return ast.LongID{}, false
		}
		name = p.tok.Text
	case token.SYMID:
		name = p.tok.Text
	case token.ASTERISK:
		name = "*"
	default:
		return ast.LongID{}, false
	}
	f, ok := p.fix[name]
	if !ok || !f.Infix {
		return ast.LongID{}, false
	}
	return ast.LongID{Parts: p.single(name), Pos: p.tok.Pos}, true
}

func (p *Parser) atPatStart() bool {
	switch p.tok.Kind {
	case token.IDENT, token.SYMID, token.ASTERISK, token.INT, token.WORD,
		token.STRING, token.CHAR, token.UNDERBAR, token.LPAREN,
		token.LBRACKET, token.LBRACE, token.OP:
		return true
	}
	return false
}

// resolvePatItems performs precedence-climbing resolution on the
// alternating pattern/operator buffer.
func (p *Parser) resolvePatItems(items []patItem) ast.Pat {
	pat, rest := p.climbPat(items, 0)
	if len(rest) != 0 {
		p.errorf(rest[0].op.Pos, "misplaced infix pattern operator %s", rest[0].op)
	}
	return pat
}

func (p *Parser) climbPat(items []patItem, minPrec int) (ast.Pat, []patItem) {
	if len(items) == 0 || items[0].pat == nil {
		if len(items) > 0 {
			p.errorf(items[0].op.Pos, "pattern expected before infix operator %s", items[0].op)
		}
		p.errorf(p.tok.Pos, "pattern expected")
	}
	left := items[0].pat
	items = items[1:]
	for len(items) > 0 {
		if items[0].pat != nil {
			p.errorf(p.tok.Pos, "consecutive atomic patterns (constructor application must be explicit)")
		}
		op := items[0]
		if op.fix.Prec < minPrec {
			return left, items
		}
		nextMin := op.fix.Prec + 1
		if op.fix.Right {
			nextMin = op.fix.Prec
		}
		var right ast.Pat
		right, items = p.climbPat(items[1:], nextMin)
		arg := ast.TuplePat([]ast.Pat{left, right}, op.op.Pos)
		left = &ast.ConPat{Con: op.op, Arg: arg}
	}
	return left, items
}

// parseAppPat parses a constructor application pattern: either an atomic
// pattern, or longid atpat.
func (p *Parser) parseAppPat() ast.Pat {
	forcedNonfix := p.accept(token.OP)
	if p.tok.Kind == token.IDENT || p.tok.Kind == token.SYMID || p.tok.Kind == token.ASTERISK {
		if !forcedNonfix {
			if _, isInfix := p.atInfixID(); isInfix {
				// Handled by caller as an operator.
				p.errorf(p.tok.Pos, "infix identifier %q used without 'op'", p.tok.Text)
			}
		}
		id := p.parseLongID()
		// Constructor application if an atomic pattern follows and the
		// current id could be a constructor; resolution of var-vs-con is
		// done in elaboration, but application force-reads it as a con.
		if p.atAtPatStart() {
			arg := p.parseAtPat()
			return &ast.ConPat{Con: id, Arg: arg}
		}
		return &ast.VarPat{Name: id}
	}
	return p.parseAtPat()
}

// atAtPatStart reports whether an atomic pattern can start here; infix
// identifiers do not start an atomic pattern.
func (p *Parser) atAtPatStart() bool {
	switch p.tok.Kind {
	case token.INT, token.WORD, token.STRING, token.CHAR, token.UNDERBAR,
		token.LPAREN, token.LBRACKET, token.LBRACE, token.OP:
		return true
	case token.IDENT, token.SYMID, token.ASTERISK:
		_, isInfix := p.atInfixID()
		return !isInfix
	}
	return false
}

func (p *Parser) parseAtPat() ast.Pat {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.UNDERBAR:
		p.next()
		return &ast.WildPat{Pos: pos}
	case token.INT, token.WORD, token.STRING, token.CHAR:
		t := p.tok
		p.next()
		return &ast.ConstPat{Kind: t.Kind, Text: t.Text, Pos: pos}
	case token.OP:
		p.next()
		return &ast.VarPat{Name: p.parseLongID()}
	case token.IDENT, token.SYMID, token.ASTERISK:
		return &ast.VarPat{Name: p.parseLongID()}
	case token.LPAREN:
		p.next()
		if p.accept(token.RPAREN) {
			return ast.UnitPat(pos)
		}
		pat := p.parsePat()
		if p.accept(token.COMMA) {
			elems := []ast.Pat{pat}
			for {
				elems = append(elems, p.parsePat())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.eat(token.RPAREN)
			return ast.TuplePat(elems, pos)
		}
		p.eat(token.RPAREN)
		return pat
	case token.LBRACKET:
		p.next()
		var elems []ast.Pat
		if !p.at(token.RBRACKET) {
			for {
				elems = append(elems, p.parsePat())
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.eat(token.RBRACKET)
		return listPat(elems, pos)
	case token.LBRACE:
		return p.parseRecordPat()
	}
	p.errorf(pos, "expected pattern, found %s", p.tok)
	panic("unreachable")
}

// listPat desugars [p1,...,pn] to p1 :: ... :: pn :: nil.
func listPat(elems []ast.Pat, pos token.Pos) ast.Pat {
	var pat ast.Pat = &ast.VarPat{Name: ast.LongID{Parts: []string{"nil"}, Pos: pos}}
	for i := len(elems) - 1; i >= 0; i-- {
		pat = &ast.ConPat{
			Con: ast.LongID{Parts: []string{"::"}, Pos: pos},
			Arg: ast.TuplePat([]ast.Pat{elems[i], pat}, pos),
		}
	}
	return pat
}

func (p *Parser) parseRecordPat() ast.Pat {
	pos := p.eat(token.LBRACE).Pos
	rp := &ast.RecordPat{Pos: pos}
	if p.accept(token.RBRACE) {
		return rp
	}
	for {
		if p.accept(token.DOTDOTDOT) {
			rp.Flexible = true
			break
		}
		label := p.parseLabel()
		var pat ast.Pat
		switch {
		case p.accept(token.EQUALS):
			pat = p.parsePat()
		default:
			// Punning: {x} = {x = x}, optionally typed or layered.
			var ty ast.Ty
			if p.accept(token.COLON) {
				ty = p.parseTy()
			}
			base := ast.Pat(&ast.VarPat{Name: ast.LongID{Parts: []string{label}, Pos: pos}})
			if ty != nil {
				base = &ast.TypedPat{Pat: base, Ty: ty}
			}
			if p.accept(token.AS) {
				base = &ast.AsPat{Name: label, Pat: p.parsePat(), Pos: pos}
			}
			pat = base
		}
		rp.Fields = append(rp.Fields, ast.RecordPatField{Label: label, Pat: pat})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.eat(token.RBRACE)
	return rp
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// parseExp parses a full expression.
func (p *Parser) parseExp() ast.Exp {
	e := p.parseOrelse()
	for p.at(token.HANDLE) {
		p.next()
		rules := p.parseMatch()
		e = &ast.HandleExp{Exp: e, Rules: rules}
	}
	return e
}

// parsePrefixExp parses the keyword-headed expression forms, which
// extend maximally to the right.
func (p *Parser) parsePrefixExp() (ast.Exp, bool) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.IF:
		p.next()
		cond := p.parseExp()
		p.eat(token.THEN)
		thn := p.parseExp()
		p.eat(token.ELSE)
		els := p.parseExp()
		return &ast.IfExp{Cond: cond, Then: thn, Else: els}, true
	case token.WHILE:
		p.next()
		cond := p.parseExp()
		p.eat(token.DO)
		body := p.parseExp()
		return &ast.WhileExp{Cond: cond, Body: body}, true
	case token.CASE:
		p.next()
		scrut := p.parseExp()
		p.eat(token.OF)
		rules := p.parseMatch()
		return &ast.CaseExp{Exp: scrut, Rules: rules, Pos: pos}, true
	case token.FN:
		p.next()
		rules := p.parseMatch()
		return &ast.FnExp{Rules: rules, Pos: pos}, true
	case token.RAISE:
		p.next()
		return &ast.RaiseExp{Exp: p.parseExp(), Pos: pos}, true
	}
	return nil, false
}

func (p *Parser) parseOrelse() ast.Exp {
	if e, ok := p.parsePrefixExp(); ok {
		return e
	}
	e := p.parseAndalso()
	for p.at(token.ORELSE) {
		p.next()
		var r ast.Exp
		if pe, ok := p.parsePrefixExp(); ok {
			r = pe
		} else {
			r = p.parseAndalso()
		}
		e = &ast.OrelseExp{L: e, R: r}
	}
	return e
}

func (p *Parser) parseAndalso() ast.Exp {
	e := p.parseTypedExp()
	for p.at(token.ANDALSO) {
		p.next()
		var r ast.Exp
		if pe, ok := p.parsePrefixExp(); ok {
			r = pe
		} else {
			r = p.parseTypedExp()
		}
		e = &ast.AndalsoExp{L: e, R: r}
	}
	return e
}

func (p *Parser) parseTypedExp() ast.Exp {
	e := p.parseInfExp()
	for p.accept(token.COLON) {
		e = &ast.TypedExp{Exp: e, Ty: p.parseTy()}
	}
	return e
}

// parseMatch parses rule ('|' rule)*.
func (p *Parser) parseMatch() []ast.Rule {
	var rules []ast.Rule
	for {
		pat := p.parsePat()
		p.eat(token.DARROW)
		exp := p.parseExp()
		rules = append(rules, ast.Rule{Pat: pat, Exp: exp})
		if !p.accept(token.BAR) {
			return rules
		}
	}
}

// expItem is an element of the infix-resolution buffer for expressions.
type expItem struct {
	exp ast.Exp // nil for operators
	op  ast.LongID
	fix Fixity
}

// infixBuf is how many items an infix-resolution buffer holds on the
// stack before it moves to the heap; few phrases are longer.
const infixBuf = 8

// parseInfExp parses application sequences interleaved with infix
// operators and resolves them by precedence.
func (p *Parser) parseInfExp() ast.Exp {
	var buf [infixBuf]expItem
	items := buf[:0]
	for {
		if p.atExpStart() {
			if id, isInfix := p.atInfixExpID(); isInfix {
				fx := p.fix[id.Parts[0]]
				p.next()
				items = append(items, expItem{op: id, fix: fx})
				continue
			}
			items = append(items, expItem{exp: p.parseAppExp()})
			continue
		}
		break
	}
	if len(items) == 0 {
		p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
	}
	return p.resolveExpItems(items)
}

// atInfixExpID is atInfixID extended with '=' (the equality operator,
// lexed as a reserved token).
func (p *Parser) atInfixExpID() (ast.LongID, bool) {
	if p.tok.Kind == token.EQUALS {
		return ast.LongID{Parts: p.single("="), Pos: p.tok.Pos}, true
	}
	return p.atInfixID()
}

func (p *Parser) atExpStart() bool {
	switch p.tok.Kind {
	case token.INT, token.WORD, token.REAL, token.STRING, token.CHAR,
		token.IDENT, token.SYMID, token.ASTERISK, token.LPAREN,
		token.LBRACKET, token.LBRACE, token.HASH, token.LET, token.OP:
		return true
	case token.EQUALS:
		return true
	}
	return false
}

func (p *Parser) resolveExpItems(items []expItem) ast.Exp {
	e, rest := p.climbExp(items, 0)
	if len(rest) != 0 {
		p.errorf(rest[0].op.Pos, "misplaced infix operator %s", rest[0].op)
	}
	return e
}

func (p *Parser) climbExp(items []expItem, minPrec int) (ast.Exp, []expItem) {
	if len(items) == 0 || items[0].exp == nil {
		if len(items) > 0 {
			p.errorf(items[0].op.Pos, "expression expected before infix operator %s", items[0].op)
		}
		p.errorf(p.tok.Pos, "expression expected")
	}
	left := items[0].exp
	items = items[1:]
	for len(items) > 0 {
		if items[0].exp != nil {
			// Should not happen: application is folded in parseAppExp.
			p.errorf(p.tok.Pos, "internal: adjacent expressions in infix buffer")
		}
		op := items[0]
		if op.fix.Prec < minPrec {
			return left, items
		}
		nextMin := op.fix.Prec + 1
		if op.fix.Right {
			nextMin = op.fix.Prec
		}
		var right ast.Exp
		right, items = p.climbExp(items[1:], nextMin)
		left = ast.InfixApp(op.op, left, right)
	}
	return left, items
}

// parseAppExp parses a juxtaposition sequence of atomic expressions.
func (p *Parser) parseAppExp() ast.Exp {
	e := p.parseAtExp()
	for p.atAtExpStart() {
		e = &ast.AppExp{Fn: e, Arg: p.parseAtExp()}
	}
	return e
}

func (p *Parser) atAtExpStart() bool {
	switch p.tok.Kind {
	case token.INT, token.WORD, token.REAL, token.STRING, token.CHAR,
		token.LPAREN, token.LBRACKET, token.LBRACE, token.HASH,
		token.LET, token.OP:
		return true
	case token.IDENT, token.SYMID, token.ASTERISK:
		_, isInfix := p.atInfixID()
		return !isInfix
	}
	return false
}

func (p *Parser) parseAtExp() ast.Exp {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.INT, token.WORD, token.REAL, token.STRING, token.CHAR:
		t := p.tok
		p.next()
		return &ast.ConstExp{Kind: t.Kind, Text: t.Text, Pos: pos}
	case token.OP:
		p.next()
		if p.tok.Kind == token.EQUALS {
			p.next()
			return &ast.VarExp{Name: ast.LongID{Parts: []string{"="}, Pos: pos}}
		}
		return &ast.VarExp{Name: p.parseLongID()}
	case token.IDENT, token.SYMID, token.ASTERISK:
		return &ast.VarExp{Name: p.parseLongID()}
	case token.HASH:
		p.next()
		label := p.parseLabel()
		return &ast.SelectExp{Label: label, Pos: pos}
	case token.LPAREN:
		p.next()
		if p.accept(token.RPAREN) {
			return ast.UnitExp(pos)
		}
		e := p.parseExp()
		switch {
		case p.accept(token.COMMA):
			elems := []ast.Exp{e}
			for {
				elems = append(elems, p.parseExp())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.eat(token.RPAREN)
			return ast.TupleExp(elems, pos)
		case p.at(token.SEMI):
			exps := []ast.Exp{e}
			for p.accept(token.SEMI) {
				exps = append(exps, p.parseExp())
			}
			p.eat(token.RPAREN)
			return &ast.SeqExp{Exps: exps, Pos: pos}
		default:
			p.eat(token.RPAREN)
			return e
		}
	case token.LBRACKET:
		p.next()
		var elems []ast.Exp
		if !p.at(token.RBRACKET) {
			for {
				elems = append(elems, p.parseExp())
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.eat(token.RBRACKET)
		return &ast.ListExp{Exps: elems, Pos: pos}
	case token.LBRACE:
		p.next()
		re := &ast.RecordExp{Pos: pos}
		if !p.at(token.RBRACE) {
			for {
				label := p.parseLabel()
				p.eat(token.EQUALS)
				re.Fields = append(re.Fields, ast.RecordExpField{Label: label, Exp: p.parseExp()})
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.eat(token.RBRACE)
		return re
	case token.LET:
		p.next()
		saved := p.pushFixity()
		decs := p.parseDecSeq()
		p.eat(token.IN)
		body := p.parseExp()
		if p.at(token.SEMI) {
			exps := []ast.Exp{body}
			for p.accept(token.SEMI) {
				exps = append(exps, p.parseExp())
			}
			body = &ast.SeqExp{Exps: exps, Pos: pos}
		}
		p.eat(token.END)
		p.popFixity(saved)
		return &ast.LetExp{Decs: decs, Body: body, Pos: pos}
	}
	p.errorf(pos, "expected expression, found %s", p.tok)
	panic("unreachable")
}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

// parseProgram parses the whole unit.
func (p *Parser) parseProgram() []ast.Dec {
	var decs []ast.Dec
	for {
		for p.accept(token.SEMI) {
		}
		if p.at(token.EOF) {
			return decs
		}
		decs = append(decs, p.parseTopDec())
	}
}

// parseTopDec parses a top-level declaration: module-level or core.
func (p *Parser) parseTopDec() ast.Dec {
	switch p.tok.Kind {
	case token.STRUCTURE:
		return p.parseStructureDec()
	case token.SIGNATURE:
		return p.parseSignatureDec()
	case token.FUNCTOR:
		return p.parseFunctorDec()
	default:
		return p.parseDec()
	}
}

// pushFixity snapshots the fixity environment; popFixity restores it.
// SML scopes fixity declarations to the enclosing declaration block
// (let, local, struct), so block parsers bracket themselves with these.
func (p *Parser) pushFixity() map[string]Fixity {
	saved := p.fix
	inner := make(map[string]Fixity, len(saved))
	for k, v := range saved {
		inner[k] = v
	}
	p.fix = inner
	return saved
}

func (p *Parser) popFixity(saved map[string]Fixity) { p.fix = saved }

// reapplyFixities re-executes the fixity directives appearing directly
// in a declaration list (used for the outer part of local..in..end).
func (p *Parser) reapplyFixities(decs []ast.Dec) {
	for _, d := range decs {
		switch d := d.(type) {
		case *ast.FixityDec:
			for _, n := range d.Names {
				if d.Kind == token.NONFIX {
					p.fix[n] = Fixity{Infix: false}
				} else {
					p.fix[n] = Fixity{Prec: d.Prec, Right: d.Kind == token.INFIXR, Infix: true}
				}
			}
		case *ast.SeqDec:
			p.reapplyFixities(d.Decs)
		case *ast.LocalDec:
			p.reapplyFixities(d.Outer)
		}
	}
}

// parseDecSeq parses declarations until a closing keyword.
func (p *Parser) parseDecSeq() []ast.Dec {
	var decs []ast.Dec
	for {
		for p.accept(token.SEMI) {
		}
		switch p.tok.Kind {
		case token.IN, token.END, token.EOF, token.RPAREN:
			// RPAREN terminates the declaration-form functor argument
			// F (decs); elsewhere the caller reports the imbalance.
			return decs
		case token.STRUCTURE:
			decs = append(decs, p.parseStructureDec())
		case token.SIGNATURE:
			decs = append(decs, p.parseSignatureDec())
		case token.FUNCTOR:
			decs = append(decs, p.parseFunctorDec())
		default:
			decs = append(decs, p.parseDec())
		}
	}
}

func (p *Parser) parseDec() ast.Dec {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case token.VAL:
		p.next()
		tyvars := p.parseTyVarSeq()
		var vbs []ast.ValBind
		for {
			rec := p.accept(token.REC)
			pat := p.parsePat()
			p.eat(token.EQUALS)
			exp := p.parseExp()
			vbs = append(vbs, ast.ValBind{Rec: rec, Pat: pat, Exp: exp})
			if !p.accept(token.AND) {
				break
			}
		}
		return &ast.ValDec{TyVars: tyvars, Vbs: vbs, Pos: pos}
	case token.FUN:
		p.next()
		tyvars := p.parseTyVarSeq()
		var fbs []ast.FunBind
		for {
			fbs = append(fbs, p.parseFunBind())
			if !p.accept(token.AND) {
				break
			}
		}
		return &ast.FunDec{TyVars: tyvars, Fbs: fbs, Pos: pos}
	case token.TYPE:
		p.next()
		return &ast.TypeDec{Tbs: p.parseTypeBinds(), Pos: pos}
	case token.DATATYPE:
		return p.parseDatatypeDec()
	case token.ABSTYPE:
		p.next()
		dbs := []ast.DataBind{p.parseDataBind()}
		for p.accept(token.AND) {
			dbs = append(dbs, p.parseDataBind())
		}
		dec := &ast.AbstypeDec{Dbs: dbs, Pos: pos}
		if p.accept(token.WITHTYPE) {
			dec.WithType = p.parseTypeBinds()
		}
		p.eat(token.WITH)
		dec.Body = p.parseDecSeq()
		p.eat(token.END)
		return dec
	case token.EXCEPTION:
		p.next()
		var ebs []ast.ExnBind
		for {
			p.accept(token.OP)
			name := p.parseName()
			eb := ast.ExnBind{Name: name}
			if p.accept(token.OF) {
				eb.Ty = p.parseTy()
			} else if p.accept(token.EQUALS) {
				alias := p.parseLongID()
				eb.Alias = &alias
			}
			ebs = append(ebs, eb)
			if !p.accept(token.AND) {
				break
			}
		}
		return &ast.ExceptionDec{Ebs: ebs, Pos: pos}
	case token.LOCAL:
		p.next()
		saved := p.pushFixity()
		inner := p.parseDecSeq()
		p.eat(token.IN)
		outer := p.parseDecSeq()
		p.eat(token.END)
		p.popFixity(saved)
		// Fixity directives among the outer declarations escape the
		// local, like the value bindings they annotate.
		p.reapplyFixities(outer)
		return &ast.LocalDec{Inner: inner, Outer: outer, Pos: pos}
	case token.OPEN:
		p.next()
		var strs []ast.LongID
		for p.at(token.IDENT) {
			strs = append(strs, p.parseLongID())
		}
		if len(strs) == 0 {
			p.errorf(pos, "expected structure name after 'open'")
		}
		return &ast.OpenDec{Strs: strs, Pos: pos}
	case token.INFIX, token.INFIXR, token.NONFIX:
		return p.parseFixityDec()
	}
	p.errorf(pos, "expected declaration, found %s", p.tok)
	panic("unreachable")
}

func (p *Parser) parseTypeBinds() []ast.TypeBind {
	var tbs []ast.TypeBind
	for {
		tyvars := p.parseTyVarSeq()
		name := p.parseName()
		p.eat(token.EQUALS)
		tbs = append(tbs, ast.TypeBind{TyVars: tyvars, Name: name, Ty: p.parseTy()})
		if !p.accept(token.AND) {
			break
		}
	}
	return tbs
}

func (p *Parser) parseDatatypeDec() ast.Dec {
	pos := p.eat(token.DATATYPE).Pos
	// Datatype replication: datatype t = datatype longtycon.
	if p.at(token.IDENT) && p.peek().Kind == token.EQUALS {
		save := p.tok
		name := p.parseName()
		p.eat(token.EQUALS)
		if p.accept(token.DATATYPE) {
			old := p.parseLongID()
			return &ast.DatatypeReplDec{Name: name, Old: old, Pos: pos}
		}
		// Not replication: re-enter normal parsing with the consumed
		// tokens reconstructed.
		dbs := []ast.DataBind{{Name: name, Cons: p.parseConBinds()}}
		for p.accept(token.AND) {
			dbs = append(dbs, p.parseDataBind())
		}
		dec := &ast.DatatypeDec{Dbs: dbs, Pos: save.Pos}
		if p.accept(token.WITHTYPE) {
			dec.WithType = p.parseTypeBinds()
		}
		return dec
	}
	dbs := []ast.DataBind{p.parseDataBind()}
	for p.accept(token.AND) {
		dbs = append(dbs, p.parseDataBind())
	}
	dec := &ast.DatatypeDec{Dbs: dbs, Pos: pos}
	if p.accept(token.WITHTYPE) {
		dec.WithType = p.parseTypeBinds()
	}
	return dec
}

func (p *Parser) parseDataBind() ast.DataBind {
	tyvars := p.parseTyVarSeq()
	name := p.parseName()
	p.eat(token.EQUALS)
	return ast.DataBind{TyVars: tyvars, Name: name, Cons: p.parseConBinds()}
}

func (p *Parser) parseConBinds() []ast.ConBind {
	var cons []ast.ConBind
	for {
		p.accept(token.OP)
		name := p.parseName()
		cb := ast.ConBind{Name: name}
		if p.accept(token.OF) {
			cb.Ty = p.parseTy()
		}
		cons = append(cons, cb)
		if !p.accept(token.BAR) {
			return cons
		}
	}
}

func (p *Parser) parseFixityDec() ast.Dec {
	pos := p.tok.Pos
	kind := p.tok.Kind
	p.next()
	prec := 0
	if kind == token.NONFIX {
		prec = -1
	} else if p.at(token.INT) {
		var n int
		fmt.Sscanf(p.tok.Text, "%d", &n)
		if n < 0 || n > 9 {
			p.errorf(p.tok.Pos, "fixity precedence must be 0..9")
		}
		prec = n
		p.next()
	}
	var names []string
	for p.at(token.IDENT) || p.at(token.SYMID) || p.at(token.ASTERISK) {
		names = append(names, p.parseName())
	}
	if len(names) == 0 {
		p.errorf(pos, "expected identifiers in fixity declaration")
	}
	for _, n := range names {
		if kind == token.NONFIX {
			p.fix[n] = Fixity{Infix: false}
		} else {
			p.fix[n] = Fixity{Prec: prec, Right: kind == token.INFIXR, Infix: true}
		}
	}
	return &ast.FixityDec{Kind: kind, Prec: prec, Names: names, Pos: pos}
}

// parseFunBind parses all clauses of one function binding, supporting
// the prefix form (f p1 ... pn = e) and the infix clause form
// (p1 ++ p2 = e).
func (p *Parser) parseFunBind() ast.FunBind {
	var fb ast.FunBind
	for {
		name, clause := p.parseFunClause()
		if fb.Name == "" {
			fb.Name = name
		} else if fb.Name != name {
			p.errorf(p.tok.Pos, "clauses of %q and %q in the same fun binding", fb.Name, name)
		}
		fb.Clauses = append(fb.Clauses, clause)
		if !p.accept(token.BAR) {
			return fb
		}
	}
}

func (p *Parser) parseFunClause() (string, ast.FunClause) {
	var name string
	var pats []ast.Pat

	switch {
	case p.accept(token.OP):
		name = p.parseName()
	case (p.at(token.IDENT) || p.at(token.SYMID)) && !p.isInfixTok():
		name = p.parseName()
	default:
		// Infix clause form: atpat id atpat.
		left := p.parseAtPat()
		name = p.parseName()
		right := p.parseAtPat()
		pats = append(pats, ast.TuplePat([]ast.Pat{left, right}, p.tok.Pos))
		return name, p.finishFunClause(pats)
	}

	// After the function name: if the next token is an infix id, this is
	// actually the infix form with a variable first pattern — but a bare
	// variable before an infix op would have been parsed above as the
	// name. We therefore require at least one atomic pattern here.
	for p.atAtPatStart() {
		pats = append(pats, p.parseAtPat())
	}
	// Possible infix clause with parenthesized first pattern consumed as
	// name? Not applicable: names are identifiers. If no argument
	// patterns and next is infix id, reinterpret: name was the left
	// pattern of an infix definition.
	if len(pats) == 0 {
		if id, ok := p.atInfixID(); ok {
			opName := id.Parts[0]
			p.next()
			right := p.parseAtPat()
			left := ast.Pat(&ast.VarPat{Name: ast.LongID{Parts: []string{name}}})
			pats = append(pats, ast.TuplePat([]ast.Pat{left, right}, id.Pos))
			return opName, p.finishFunClause(pats)
		}
		p.errorf(p.tok.Pos, "function clause for %q has no argument patterns", name)
	}
	return name, p.finishFunClause(pats)
}

func (p *Parser) isInfixTok() bool {
	_, ok := p.atInfixID()
	return ok
}

func (p *Parser) finishFunClause(pats []ast.Pat) ast.FunClause {
	var resTy ast.Ty
	if p.accept(token.COLON) {
		resTy = p.parseTy()
	}
	p.eat(token.EQUALS)
	body := p.parseExp()
	return ast.FunClause{Pats: pats, ResultTy: resTy, Body: body}
}

// ---------------------------------------------------------------------
// Module language
// ---------------------------------------------------------------------

func (p *Parser) parseStructureDec() ast.Dec {
	pos := p.eat(token.STRUCTURE).Pos
	var sbs []ast.StrBind
	for {
		name := p.parseName()
		sb := ast.StrBind{Name: name}
		if p.at(token.COLON) || p.at(token.COLONGT) {
			sb.Opaque = p.at(token.COLONGT)
			p.next()
			sb.Sig = p.parseSigExp()
		}
		p.eat(token.EQUALS)
		sb.Str = p.parseStrExp()
		sbs = append(sbs, sb)
		if !p.accept(token.AND) {
			break
		}
	}
	return &ast.StructureDec{Sbs: sbs, Pos: pos}
}

func (p *Parser) parseSignatureDec() ast.Dec {
	pos := p.eat(token.SIGNATURE).Pos
	var sbs []ast.SigBind
	for {
		name := p.parseName()
		p.eat(token.EQUALS)
		sbs = append(sbs, ast.SigBind{Name: name, Sig: p.parseSigExp()})
		if !p.accept(token.AND) {
			break
		}
	}
	return &ast.SignatureDec{Sbs: sbs, Pos: pos}
}

func (p *Parser) parseFunctorDec() ast.Dec {
	pos := p.eat(token.FUNCTOR).Pos
	var fbs []ast.FunctorBind
	for {
		name := p.parseName()
		p.eat(token.LPAREN)
		fb := ast.FunctorBind{Name: name}
		if p.at(token.IDENT) && p.peek().Kind == token.COLON {
			fb.ParamName = p.parseName()
			p.eat(token.COLON)
			fb.ParamSig = p.parseSigExp()
		} else {
			// Opened parameter form: functor F (specs) = body desugars to
			// a synthetic parameter opened inside the body.
			specs := p.parseSpecSeq()
			fb.ParamName = "$Arg"
			fb.ParamSig = &ast.SigSigExp{Specs: specs, Pos: pos}
		}
		p.eat(token.RPAREN)
		if p.at(token.COLON) || p.at(token.COLONGT) {
			fb.Opaque = p.at(token.COLONGT)
			p.next()
			fb.ResultSig = p.parseSigExp()
		}
		p.eat(token.EQUALS)
		body := p.parseStrExp()
		if fb.ParamName == "$Arg" {
			body = &ast.LetStrExp{
				Decs: []ast.Dec{&ast.OpenDec{Strs: []ast.LongID{{Parts: []string{"$Arg"}, Pos: pos}}, Pos: pos}},
				Body: body,
				Pos:  pos,
			}
		}
		fb.Body = body
		fbs = append(fbs, fb)
		if !p.accept(token.AND) {
			break
		}
	}
	return &ast.FunctorDec{Fbs: fbs, Pos: pos}
}

func (p *Parser) parseStrExp() ast.StrExp {
	pos := p.tok.Pos
	var se ast.StrExp
	switch p.tok.Kind {
	case token.STRUCT:
		p.next()
		saved := p.pushFixity()
		decs := p.parseDecSeq()
		p.eat(token.END)
		p.popFixity(saved)
		se = &ast.StructStrExp{Decs: decs, Pos: pos}
	case token.LET:
		p.next()
		saved := p.pushFixity()
		decs := p.parseDecSeq()
		p.eat(token.IN)
		body := p.parseStrExp()
		p.eat(token.END)
		p.popFixity(saved)
		se = &ast.LetStrExp{Decs: decs, Body: body, Pos: pos}
	case token.IDENT:
		id := p.parseLongID()
		if p.at(token.LPAREN) {
			if id.IsQualified() {
				p.errorf(pos, "functor name must be unqualified")
			}
			p.next()
			var arg ast.StrExp
			if p.atStrExpStart() {
				arg = p.parseStrExp()
			} else {
				decs := p.parseDecSeq()
				arg = &ast.StructStrExp{Decs: decs, Pos: pos}
			}
			p.eat(token.RPAREN)
			se = &ast.AppStrExp{Functor: id.Parts[0], Arg: arg, Pos: pos}
		} else {
			se = &ast.PathStrExp{Path: id}
		}
	default:
		p.errorf(pos, "expected structure expression, found %s", p.tok)
	}
	for p.at(token.COLON) || p.at(token.COLONGT) {
		opaque := p.at(token.COLONGT)
		p.next()
		se = &ast.ConstraintStrExp{Str: se, Sig: p.parseSigExp(), Opaque: opaque}
	}
	return se
}

func (p *Parser) atStrExpStart() bool {
	switch p.tok.Kind {
	case token.STRUCT, token.LET:
		return true
	case token.IDENT:
		// Ambiguous with the opened-decs argument form; a bare path or
		// application is a strexp. A declaration keyword is not IDENT, so
		// IDENT here means strexp.
		return true
	}
	return false
}

func (p *Parser) parseSigExp() ast.SigExp {
	pos := p.tok.Pos
	var se ast.SigExp
	switch p.tok.Kind {
	case token.SIG:
		p.next()
		specs := p.parseSpecSeq()
		p.eat(token.END)
		se = &ast.SigSigExp{Specs: specs, Pos: pos}
	case token.IDENT:
		name := p.parseName()
		se = &ast.NameSigExp{Name: name, Pos: pos}
	default:
		p.errorf(pos, "expected signature expression, found %s", p.tok)
	}
	for p.at(token.WHERE) {
		p.next()
		p.eat(token.TYPE)
		for {
			tyvars := p.parseTyVarSeq()
			tycon := p.parseLongID()
			p.eat(token.EQUALS)
			ty := p.parseTy()
			se = &ast.WhereSigExp{Sig: se, TyVars: tyvars, Tycon: tycon, Ty: ty}
			if !(p.at(token.AND) && p.peek().Kind == token.TYPE) {
				break
			}
			p.next() // and
			p.next() // type
		}
	}
	return se
}

func (p *Parser) parseSpecSeq() []ast.Spec {
	var specs []ast.Spec
	for {
		for p.accept(token.SEMI) {
		}
		pos := p.tok.Pos
		switch p.tok.Kind {
		case token.VAL:
			p.next()
			for {
				p.accept(token.OP)
				name := p.parseName()
				p.eat(token.COLON)
				specs = append(specs, &ast.ValSpec{Name: name, Ty: p.parseTy(), Pos: pos})
				if !p.accept(token.AND) {
					break
				}
			}
		case token.TYPE, token.EQTYPE:
			eq := p.tok.Kind == token.EQTYPE
			p.next()
			for {
				tyvars := p.parseTyVarSeq()
				name := p.parseName()
				spec := &ast.TypeSpec{TyVars: tyvars, Name: name, Eq: eq, Pos: pos}
				if p.accept(token.EQUALS) {
					spec.Def = p.parseTy()
				}
				specs = append(specs, spec)
				if !p.accept(token.AND) {
					break
				}
			}
		case token.DATATYPE:
			p.next()
			dbs := []ast.DataBind{p.parseDataBind()}
			for p.accept(token.AND) {
				dbs = append(dbs, p.parseDataBind())
			}
			specs = append(specs, &ast.DatatypeSpec{Dbs: dbs, Pos: pos})
		case token.EXCEPTION:
			p.next()
			for {
				name := p.parseName()
				spec := &ast.ExceptionSpec{Name: name, Pos: pos}
				if p.accept(token.OF) {
					spec.Ty = p.parseTy()
				}
				specs = append(specs, spec)
				if !p.accept(token.AND) {
					break
				}
			}
		case token.STRUCTURE:
			p.next()
			for {
				name := p.parseName()
				p.eat(token.COLON)
				specs = append(specs, &ast.StructureSpec{Name: name, Sig: p.parseSigExp(), Pos: pos})
				if !p.accept(token.AND) {
					break
				}
			}
		case token.INCLUDE:
			p.next()
			specs = append(specs, &ast.IncludeSpec{Sig: p.parseSigExp(), Pos: pos})
		case token.SHARING:
			p.next()
			p.eat(token.TYPE)
			tycons := []ast.LongID{p.parseLongID()}
			for p.accept(token.EQUALS) {
				tycons = append(tycons, p.parseLongID())
			}
			specs = append(specs, &ast.SharingSpec{Tycons: tycons, Pos: pos})
		default:
			return specs
		}
	}
}
