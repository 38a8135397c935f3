// Package sql is the SQL front end: a lexer, a recursive-descent parser
// for a single-block SELECT dialect (plus CREATE TABLE / INSERT for the
// REPL), and a binder that resolves names against a catalog of schemas and
// produces the optimizer's query IR.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , . = <> <= >= < > * + - /
)

type token struct {
	kind tokKind
	text string // keywords are upper-cased
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "GROUP": true, "BY": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "AS": true, "JOIN": true, "ON": true,
	"INNER": true, "CREATE": true, "TABLE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "COUNT": true, "SUM": true, "MIN": true,
	"MAX": true, "AVG": true, "DATE": true, "INT": true, "BIGINT": true,
	"FLOAT": true, "DOUBLE": true, "VARCHAR": true, "CHAR": true,
	"DECIMAL": true, "TEXT": true, "EXPLAIN": true, "BETWEEN": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises src, returning a descriptive error with byte position on
// invalid input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexWord()
		case unicode.IsDigit(rune(c)):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
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

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
			break
		}
		l.pos++
	}
	word := l.src[start:l.pos]
	up := strings.ToUpper(word)
	if keywords[up] {
		l.emit(tokKeyword, up)
		return
	}
	l.emit(tokIdent, word)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			if seenDot {
				return fmt.Errorf("sql: %w: malformed number at byte %d", ErrSyntax, start)
			}
			seenDot = true
			l.pos++
			continue
		}
		if !unicode.IsDigit(rune(c)) {
			break
		}
		l.pos++
	}
	if seenDot {
		l.emit(tokFloat, l.src[start:l.pos])
	} else {
		l.emit(tokInt, l.src[start:l.pos])
	}
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(tokString, b.String())
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: %w: unterminated string at byte %d", ErrSyntax, start)
}

func (l *lexer) lexSymbol() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		if two == "!=" {
			two = "<>"
		}
		l.emit(tokSymbol, two)
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '=', '<', '>', '*', '+', '-', '/', ';':
		l.emit(tokSymbol, string(c))
		l.pos++
		return nil
	}
	return fmt.Errorf("sql: %w: unexpected character %q at byte %d", ErrSyntax, c, l.pos)
}
