package rules

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"firestore/internal/status"
)

// AST types.

// Ruleset is a parsed rules file: the top-level match blocks.
type Ruleset struct {
	Matches []*MatchBlock
}

// MatchBlock is `match <pattern> { allow...; match... }`.
type MatchBlock struct {
	Pattern  []Segment
	Allows   []*Allow
	Children []*MatchBlock
}

// Segment is one path-pattern component.
type Segment struct {
	// Literal text, or capture variable name when Var is true.
	Text string
	Var  bool
	// Rest marks a {name=**} segment capturing the remaining path.
	Rest bool
}

func (s Segment) String() string {
	switch {
	case s.Rest:
		return "{" + s.Text + "=**}"
	case s.Var:
		return "{" + s.Text + "}"
	default:
		return s.Text
	}
}

// Method is an access method an allow statement grants.
type Method string

// The allowable methods. Read expands to get+list; Write to
// create+update+delete.
const (
	MethodGet    Method = "get"
	MethodList   Method = "list"
	MethodCreate Method = "create"
	MethodUpdate Method = "update"
	MethodDelete Method = "delete"
)

// Allow is `allow read, write: if <cond>;` with expanded methods.
type Allow struct {
	Methods []Method
	Cond    Expr // nil means unconditional
}

// Expr is an expression AST node.
type Expr interface{ exprNode() }

type (
	// LitExpr is a literal: null, bool, int, float, string.
	LitExpr struct{ Value any } // nil, bool, int64, float64, string
	// VarExpr references a name in scope (request, resource, captures).
	VarExpr struct{ Name string }
	// MemberExpr is x.field.
	MemberExpr struct {
		X     Expr
		Field string
	}
	// IndexExpr is x[i].
	IndexExpr struct{ X, Index Expr }
	// CallExpr is fn(args...); fn is get, exists, or a method like
	// x.size().
	CallExpr struct {
		Fn   Expr
		Args []Expr
	}
	// UnaryExpr is !x or -x.
	UnaryExpr struct {
		Op string
		X  Expr
	}
	// BinaryExpr is x <op> y.
	BinaryExpr struct {
		Op   string
		X, Y Expr
	}
	// ListExpr is [a, b, c].
	ListExpr struct{ Elems []Expr }
	// PathExpr is a /path/$(var)/literal expression used by get() and
	// exists().
	PathExpr struct{ Parts []Expr } // each part evaluates to a string segment
)

func (*LitExpr) exprNode()    {}
func (*VarExpr) exprNode()    {}
func (*MemberExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*ListExpr) exprNode()   {}
func (*PathExpr) exprNode()   {}

// Parse parses rules source into a Ruleset. It accepts the conventional
//
//	service cloud.firestore { match /databases/{db}/documents { ... } }
//
// wrapper as well as bare match blocks, in both cases evaluating patterns
// against document paths. It refuses rules that nest more than
// maxNesting levels deep, as written or as printed.
func Parse(src string) (*Ruleset, error) {
	rs, err := parse(src)
	if err == nil {
		// The printed form parenthesises every unary and binary
		// expression, so it can nest deeper than its source: it must
		// parse too.
		if _, perr := parse(rs.String()); perr != nil {
			err = fmt.Errorf("printed, %w", perr)
		}
	}
	if err != nil {
		// Malformed rules source is a caller problem: classify every
		// parse failure InvalidArgument without touching its message.
		return nil, status.WithCode(status.InvalidArgument, err)
	}
	return rs, nil
}

// parse is Parse without the check of the printed form.
func parse(src string) (*Ruleset, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	rs := &Ruleset{}
	// Optional: rules_version = '2';
	if p.peekIdent("rules_version") {
		p.next()
		if !p.acceptOp("=") {
			return nil, p.errf("expected '=' after rules_version")
		}
		if p.peek().kind != tokString {
			return nil, p.errf("expected version string")
		}
		p.next()
		p.acceptPunct(";")
	}
	// Optional: service cloud.firestore { ... }
	if p.peekIdent("service") {
		p.next()
		for p.peek().kind == tokIdent || p.peekPunct(".") {
			p.next()
		}
		if !p.acceptPunct("{") {
			return nil, p.errf("expected '{' after service")
		}
		for !p.peekPunct("}") {
			m, err := p.parseMatch()
			if err != nil {
				return nil, err
			}
			rs.Matches = append(rs.Matches, m)
		}
		p.next() // }
	} else {
		for p.peek().kind != tokEOF {
			m, err := p.parseMatch()
			if err != nil {
				return nil, err
			}
			rs.Matches = append(rs.Matches, m)
		}
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	// Strip the conventional /databases/{db}/documents prefix so
	// patterns address document paths directly: the wrapper's children
	// are hoisted to the top level, and any allows directly on the
	// wrapper become a catch-all {rest=**} block.
	var flattened []*MatchBlock
	for _, m := range rs.Matches {
		flattened = append(flattened, stripDatabasesWrapper(m)...)
	}
	rs.Matches = flattened
	return rs, nil
}

// stripDatabasesWrapper unwraps match /databases/{x}/documents { ... }.
func stripDatabasesWrapper(m *MatchBlock) []*MatchBlock {
	pat := m.Pattern
	if len(pat) == 3 && pat[0].Text == "databases" && !pat[0].Var &&
		pat[1].Var && pat[2].Text == "documents" && !pat[2].Var {
		out := m.Children
		if len(m.Allows) > 0 {
			out = append(out, &MatchBlock{
				Pattern: []Segment{{Text: "rest", Var: true, Rest: true}},
				Allows:  m.Allows,
			})
		}
		return out
	}
	return []*MatchBlock{m}
}

type parser struct {
	tokens []token
	pos    int
	depth  int // levels of nesting entered (nest)
}

// maxNesting bounds how deeply match blocks and expressions nest: the
// parser recurses once per level, so without it a body of '(' would
// overflow the stack. The repo's rules nest 10 deep at most, postfix
// links included.
const maxNesting = 100

// nest counts one level of nesting (at each parseMatch, parseExpr and
// parseUnary, and at each postfix link), refusing past maxNesting. The
// caller defers unnest once nest succeeds.
func (p *parser) nest() error {
	if p.depth == maxNesting {
		return p.errf("nested more than %d deep", maxNesting)
	}
	p.depth++
	return nil
}

func (p *parser) unnest() { p.depth-- }

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) next() token {
	t := p.tokens[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) peekIdent(name string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == name
}

func (p *parser) peekPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.peekPunct(s) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptOp(s string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("rules: line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) parseMatch() (*MatchBlock, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if !p.peekIdent("match") {
		return nil, p.errf("expected 'match', got %q", p.peek().text)
	}
	p.next()
	pattern, err := p.parsePattern()
	if err != nil {
		return nil, err
	}
	if !p.acceptPunct("{") {
		return nil, p.errf("expected '{' after match pattern")
	}
	m := &MatchBlock{Pattern: pattern}
	for !p.peekPunct("}") {
		switch {
		case p.peekIdent("match"):
			child, err := p.parseMatch()
			if err != nil {
				return nil, err
			}
			m.Children = append(m.Children, child)
		case p.peekIdent("allow"):
			a, err := p.parseAllow()
			if err != nil {
				return nil, err
			}
			m.Allows = append(m.Allows, a)
		case p.peek().kind == tokEOF:
			return nil, p.errf("unterminated match block")
		default:
			return nil, p.errf("expected 'match', 'allow', or '}', got %q", p.peek().text)
		}
	}
	p.next() // }
	return m, nil
}

func (p *parser) parsePattern() ([]Segment, error) {
	var segs []Segment
	for p.acceptPunct("/") {
		switch t := p.peek(); {
		case t.kind == tokPunct && t.text == "{":
			p.next()
			name := p.next()
			if name.kind != tokIdent {
				return nil, p.errf("expected wildcard name")
			}
			seg := Segment{Text: name.text, Var: true}
			if p.acceptOp("=") {
				if !p.acceptOp("**") {
					return nil, p.errf("expected '**' in rest wildcard")
				}
				seg.Rest = true
			}
			if !p.acceptPunct("}") {
				return nil, p.errf("expected '}' closing wildcard")
			}
			segs = append(segs, seg)
		case t.kind == tokIdent || t.kind == tokInt:
			p.next()
			segs = append(segs, Segment{Text: t.text})
		default:
			return nil, p.errf("expected path segment, got %q", t.text)
		}
	}
	if len(segs) == 0 {
		return nil, p.errf("match pattern must start with '/'")
	}
	return segs, nil
}

var methodExpansion = map[string][]Method{
	"read":   {MethodGet, MethodList},
	"write":  {MethodCreate, MethodUpdate, MethodDelete},
	"get":    {MethodGet},
	"list":   {MethodList},
	"create": {MethodCreate},
	"update": {MethodUpdate},
	"delete": {MethodDelete},
}

func (p *parser) parseAllow() (*Allow, error) {
	p.next() // allow
	a := &Allow{}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errf("expected access method, got %q", t.text)
		}
		methods, ok := methodExpansion[t.text]
		if !ok {
			return nil, p.errf("unknown access method %q", t.text)
		}
		a.Methods = append(a.Methods, methods...)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptPunct(":") {
		if !p.peekIdent("if") {
			return nil, p.errf("expected 'if' after ':'")
		}
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		a.Cond = cond
	}
	if !p.acceptPunct(";") {
		return nil, p.errf("expected ';' after allow statement")
	}
	return a, nil
}

// Binary operators by level, loosest first. Every level is
// left-associative, and the level below the last is parseUnary.
var binaryLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!=", "<", "<=", ">", ">=", "in"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.parseBinary(0)
}

// parseBinary parses a chain of binaryLevels[level]'s operators over
// operands of the levels below it.
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptBinary(binaryLevels[level])
		if !ok {
			return x, nil
		}
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
}

// acceptBinary consumes the next token if it is one of ops. Besides
// operator tokens, `in` lexes as an identifier and `/` as punctuation
// (it also opens a path).
func (p *parser) acceptBinary(ops []string) (string, bool) {
	t := p.peek()
	isOp := t.kind == tokOp || t.kind == tokIdent && t.text == "in" || t.kind == tokPunct && t.text == "/"
	if !isOp || !slices.Contains(ops, t.text) {
		return "", false
	}
	p.next()
	return t.text, true
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if t := p.peek(); t.kind == tokOp && (t.text == "!" || t.text == "-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x}, nil
	}
	return p.parsePostfix()
}

// parseList parses comma-separated expressions through the closing
// punctuation close.
func (p *parser) parseList(close string) ([]Expr, error) {
	var elems []Expr
	for !p.peekPunct(close) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if !p.acceptPunct(",") {
			break
		}
	}
	if !p.acceptPunct(close) {
		return nil, p.errf("expected '%s'", close)
	}
	return elems, nil
}

// parsePostfix parses a primary and its chain of .f, [i] and (args)
// links. Each link nests the tree one level deeper, so each counts
// against maxNesting.
func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		if p.peekPunct(".") || p.peekPunct("[") || p.peekPunct("(") {
			if err := p.nest(); err != nil {
				return nil, err
			}
		}
		switch {
		case p.acceptPunct("."):
			name := p.next()
			if name.kind != tokIdent {
				return nil, p.errf("expected member name after '.'")
			}
			x = &MemberExpr{X: x, Field: name.text}
		case p.acceptPunct("["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptPunct("]") {
				return nil, p.errf("expected ']'")
			}
			x = &IndexExpr{X: x, Index: idx}
		case p.acceptPunct("("):
			args, err := p.parseList(")")
			if err != nil {
				return nil, err
			}
			x = &CallExpr{Fn: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokString:
		p.next()
		return &LitExpr{Value: t.text}, nil
	case t.kind == tokInt:
		p.next()
		var v int64
		if _, err := fmt.Sscanf(t.text, "%d", &v); err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &LitExpr{Value: v}, nil
	case t.kind == tokFloat:
		p.next()
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &LitExpr{Value: v}, nil
	case t.kind == tokIdent:
		p.next()
		switch t.text {
		case "true":
			return &LitExpr{Value: true}, nil
		case "false":
			return &LitExpr{Value: false}, nil
		case "null":
			return &LitExpr{Value: nil}, nil
		}
		return &VarExpr{Name: t.text}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptPunct(")") {
			return nil, p.errf("expected ')'")
		}
		return x, nil
	case t.kind == tokPunct && t.text == "[":
		p.next()
		elems, err := p.parseList("]")
		if err != nil {
			return nil, err
		}
		return &ListExpr{Elems: elems}, nil
	case t.kind == tokPunct && t.text == "/":
		return p.parsePathExpr()
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

// parsePathExpr parses /seg/$(expr)/seg... used inside get()/exists().
func (p *parser) parsePathExpr() (Expr, error) {
	var parts []Expr
	for p.acceptPunct("/") {
		switch t := p.peek(); {
		case t.kind == tokOp && t.text == "$":
			p.next()
			if !p.acceptPunct("(") {
				return nil, p.errf("expected '(' after '$'")
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.acceptPunct(")") {
				return nil, p.errf("expected ')' closing '$('")
			}
			parts = append(parts, e)
		case t.kind == tokIdent || t.kind == tokInt:
			p.next()
			parts = append(parts, &LitExpr{Value: t.text})
		default:
			return nil, p.errf("expected path segment, got %q", t.text)
		}
	}
	if len(parts) == 0 {
		return nil, p.errf("empty path expression")
	}
	return &PathExpr{Parts: parts}, nil
}

// String renders the ruleset back to source (canonical form), used by the
// parse→print→parse fixpoint property test.
func (rs *Ruleset) String() string {
	var b strings.Builder
	for _, m := range rs.Matches {
		writeMatch(&b, m, 0)
	}
	return b.String()
}

func writeMatch(b *strings.Builder, m *MatchBlock, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString("match ")
	for _, s := range m.Pattern {
		b.WriteString("/")
		b.WriteString(s.String())
	}
	b.WriteString(" {\n")
	for _, a := range m.Allows {
		b.WriteString(indent + "  allow ")
		for i, meth := range a.Methods {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(string(meth))
		}
		if a.Cond != nil {
			b.WriteString(": if ")
			writeExpr(b, a.Cond)
		}
		b.WriteString(";\n")
	}
	for _, c := range m.Children {
		writeMatch(b, c, depth+1)
	}
	b.WriteString(indent + "}\n")
}

func writeExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *LitExpr:
		switch v := x.Value.(type) {
		case nil:
			b.WriteString("null")
		case string:
			b.WriteString(strconv.Quote(v))
		case float64:
			// Positional digits with a point, as the lexer reads a float.
			f := strconv.FormatFloat(v, 'f', -1, 64)
			if !strings.Contains(f, ".") {
				f += ".0"
			}
			b.WriteString(f)
		default:
			fmt.Fprintf(b, "%v", v)
		}
	case *VarExpr:
		b.WriteString(x.Name)
	case *MemberExpr:
		writeOperand(b, x.X)
		b.WriteString("." + x.Field)
	case *IndexExpr:
		writeOperand(b, x.X)
		b.WriteString("[")
		writeExpr(b, x.Index)
		b.WriteString("]")
	case *CallExpr:
		writeOperand(b, x.Fn)
		b.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, a)
		}
		b.WriteString(")")
	case *UnaryExpr:
		b.WriteString(x.Op)
		b.WriteString("(")
		writeExpr(b, x.X)
		b.WriteString(")")
	case *BinaryExpr:
		b.WriteString("(")
		writeExpr(b, x.X)
		b.WriteString(" " + x.Op + " ")
		writeExpr(b, x.Y)
		b.WriteString(")")
	case *ListExpr:
		b.WriteString("[")
		for i, el := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, el)
		}
		b.WriteString("]")
	case *PathExpr:
		for _, part := range x.Parts {
			b.WriteString("/")
			if lit, ok := part.(*LitExpr); ok {
				if s, ok := lit.Value.(string); ok && isPathWord(s) {
					b.WriteString(s)
					continue
				}
			}
			b.WriteString("$(")
			writeExpr(b, part)
			b.WriteString(")")
		}
	}
}

// writeOperand writes the operand of a member, index or call. A unary
// expression is parenthesised: printed bare, as !(a), the postfix would
// bind to its operand, so (!a).f would read back as !(a.f).
func writeOperand(b *strings.Builder, e Expr) {
	if _, ok := e.(*UnaryExpr); !ok {
		writeExpr(b, e)
		return
	}
	b.WriteString("(")
	writeExpr(b, e)
	b.WriteString(")")
}

// isPathWord reports whether s lexes as one path segment token: an
// identifier or an integer.
func isPathWord(s string) bool {
	toks, err := lex(s)
	return err == nil && len(toks) == 2 && toks[0].text == s && (toks[0].kind == tokIdent || toks[0].kind == tokInt)
}
