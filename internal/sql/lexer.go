// Package sql is the host-side query front end (the paper's Query2DXL
// translator substrate): a lexer, parser and binder turning SQL text into
// the bound logical trees the optimizer consumes. It supports the dialect
// the TPC-DS-lite workload needs: SELECT with joins (comma, INNER/LEFT ...
// ON), WHERE, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, UNION ALL,
// INTERSECT/EXCEPT (desugared), WITH (common table expressions), window
// functions, CASE, BETWEEN, LIKE, IN lists, and scalar/EXISTS/IN subqueries
// with correlation.
package sql

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved word (uppercased)
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// keywords maps each reserved word to itself, so that a keyword token's
// text is the word's one string, not a copy made per token.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
		"OFFSET", "AS", "AND", "OR", "NOT", "IN", "EXISTS", "BETWEEN", "LIKE",
		"IS", "NULL", "CASE", "WHEN", "THEN", "ELSE", "END", "JOIN", "INNER",
		"LEFT", "RIGHT", "OUTER", "ON", "UNION", "ALL", "DISTINCT", "WITH",
		"ASC", "DESC", "INTERSECT", "EXCEPT", "OVER", "PARTITION", "TRUE",
		"FALSE", "CROSS", "ROLLUP", "CUBE",
	} {
		m[k] = k
	}
	return m
}()

// maxKeyword is the length of the longest keyword.
const maxKeyword = len("INTERSECT")

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// TPC-DS queries lex to a little under one token per four bytes, so
	// this capacity holds their tokens and EOF without regrowing.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+1)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		l.toks = append(l.toks, token{kind: tokKeyword, text: kw, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(text), pos: start})
}

// keyword returns the reserved word an identifier spells in any case, if it
// spells one, without allocating: it upper-cases into a stack buffer.
func keyword(text string) (string, bool) {
	if len(text) > maxKeyword {
		return "", false
	}
	var buf [maxKeyword]byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

var twoCharSymbols = map[string]bool{"<=": true, ">=": true, "<>": true, "!=": true}

func (l *lexer) lexSymbol() error {
	if l.pos+1 < len(l.src) && twoCharSymbols[l.src[l.pos:l.pos+2]] {
		l.toks = append(l.toks, token{kind: tokSymbol, text: l.src[l.pos : l.pos+2], pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
		l.toks = append(l.toks, token{kind: tokSymbol, text: l.src[l.pos : l.pos+1], pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at offset %d", c, l.pos)
}
