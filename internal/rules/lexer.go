// Package rules implements a Firebase-Security-Rules-like language
// (§III-E): a declarative grammar of nested match blocks with path
// wildcards and allow statements guarded by boolean expressions over
// request.auth, resource, request.resource, and transactionally
// consistent get()/exists() lookups of other documents. Firestore
// evaluates these rules for every third-party request.
package rules

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokInt
	tokFloat
	tokPunct // one of ( ) { } [ ] , ; : . /
	tokOp    // == != <= >= < > && || ! + - * % = ** $
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
	line int
}

// lexer tokenizes rules source.
type lexer struct {
	src    string
	pos    int
	line   int
	tokens []token
}

// lex tokenizes src, returning an error on malformed input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peek(1) == '/':
			l.skipLineComment()
		case c == '/' && l.peek(1) == '*':
			if err := l.skipBlockComment(); err != nil {
				return nil, err
			}
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case isDigit(c):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			if err := l.lexOperatorOrPunct(); err != nil {
				return nil, err
			}
		}
	}
	l.emit(tokEOF, "")
	return l.tokens, nil
}

func (l *lexer) peek(n int) byte {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: l.pos, line: l.line})
}

func (l *lexer) skipLineComment() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) skipBlockComment() error {
	start := l.line
	l.pos += 2
	for l.pos+1 < len(l.src) {
		if l.src[l.pos] == '\n' {
			l.line++
		}
		if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
			l.pos += 2
			return nil
		}
		l.pos++
	}
	return fmt.Errorf("rules: unterminated block comment starting at line %d", start)
}

func (l *lexer) lexString(quote byte) error {
	startLine := l.line
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			l.emit(tokString, b.String())
			return nil
		case '\\':
			// Go's escapes, which the printer writes (strconv.Quote), and
			// either quote escaped in either kind of string.
			if l.peek(1) == '\'' || l.peek(1) == '"' {
				b.WriteByte(l.peek(1))
				l.pos += 2
				continue
			}
			v, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], quote)
			if err != nil {
				return fmt.Errorf("rules: bad escape at line %d", l.line)
			}
			if multibyte {
				b.WriteRune(v)
			} else {
				b.WriteByte(byte(v))
			}
			l.pos = len(l.src) - len(tail)
		case '\n':
			return fmt.Errorf("rules: unterminated string at line %d", startLine)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("rules: unterminated string at line %d", startLine)
}

func (l *lexer) lexNumber() {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		if l.src[l.pos] == '.' {
			if isFloat || !isDigit(l.peek(1)) {
				break
			}
			isFloat = true
		}
		l.pos++
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	l.emit(kind, l.src[start:l.pos])
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.emit(tokIdent, l.src[start:l.pos])
}

var twoByteOps = []string{"==", "!=", "<=", ">=", "&&", "||", "**"}

func (l *lexer) lexOperatorOrPunct() error {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, op := range twoByteOps {
			if two == op {
				l.emit(tokOp, op)
				l.pos += 2
				return nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '.', '/':
		l.emit(tokPunct, string(c))
	case '<', '>', '!', '+', '-', '*', '%', '=', '$':
		l.emit(tokOp, string(c))
	default:
		return fmt.Errorf("rules: unexpected character %q at line %d", c, l.line)
	}
	l.pos++
	return nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
