// Package sparql implements the SPARQL subset that KGLiDS's predefined
// operations and ad-hoc queries use (paper Sections 2.2 and 5): basic graph
// patterns, GRAPH and OPTIONAL blocks, FILTER expressions, DISTINCT,
// aggregation with GROUP BY, ORDER BY, LIMIT/OFFSET, and PREFIX
// declarations. Queries execute against the index-backed quad store.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

// literalEscaper inverts the lexer's string unescaping.
var literalEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// QuoteString returns s as a string literal that the lexer reads back as
// s exactly, for splicing a value into query text.
func QuoteString(s string) string { return `"` + literalEscaper.Replace(s) + `"` }

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar      // ?name
	tokIRI      // <...>
	tokPrefixed // prefix:local
	tokString   // "..."
	tokNumber
	tokPunct // { } ( ) . , ; *
	tokOp    // = != < <= > >= && || ! + - /
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "WHERE": true, "PREFIX": true, "FILTER": true,
	"OPTIONAL": true, "GRAPH": true, "DISTINCT": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"GROUP": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true,
	"MAX": true, "AS": true, "CONTAINS": true, "STRSTARTS": true,
	"REGEX": true, "STR": true, "BOUND": true, "NOT": true, "A": true,
	"UNION": true, "TRUE": true, "FALSE": true, "LCASE": true, "UCASE": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '?' || c == '$':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == start {
				return nil, fmt.Errorf("sparql: empty variable name at %d", start)
			}
			l.emit(tokVar, l.src[start:l.pos], start)
		case c == '<':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tokOp, "<=", l.pos)
				l.pos += 2
				break
			}
			// IRI if it looks like one, else operator '<'.
			end := strings.IndexByte(l.src[l.pos:], '>')
			if end > 0 && !strings.ContainsAny(l.src[l.pos:l.pos+end], " \t\n") {
				l.emit(tokIRI, l.src[l.pos+1:l.pos+end], l.pos)
				l.pos += end + 1
			} else {
				l.emit(tokOp, "<", l.pos)
				l.pos++
			}
		case c == '"':
			start := l.pos
			l.pos++
			var sb strings.Builder
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
					l.pos++
					switch l.src[l.pos] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(l.src[l.pos])
					}
				} else {
					sb.WriteByte(l.src[l.pos])
				}
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("sparql: unterminated string at %d", start)
			}
			l.pos++ // closing quote
			l.emit(tokString, sb.String(), start)
		case strings.ContainsRune("{}().,;*", rune(c)):
			// '.' inside a number is handled in the number branch below.
			l.emit(tokPunct, string(c), l.pos)
			l.pos++
		case c == '=':
			l.emit(tokOp, "=", l.pos)
			l.pos++
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tokOp, "!=", l.pos)
				l.pos += 2
			} else {
				l.emit(tokOp, "!", l.pos)
				l.pos++
			}
		case c == '>':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.emit(tokOp, ">=", l.pos)
				l.pos += 2
			} else {
				l.emit(tokOp, ">", l.pos)
				l.pos++
			}
		case c == '&' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '&':
			l.emit(tokOp, "&&", l.pos)
			l.pos += 2
		case c == '|' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '|':
			l.emit(tokOp, "||", l.pos)
			l.pos += 2
		case c == '+' || c == '/':
			l.emit(tokOp, string(c), l.pos)
			l.pos++
		case c == '-':
			if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
				l.lexNumber()
			} else {
				l.emit(tokOp, "-", l.pos)
				l.pos++
			}
		case isDigit(c):
			l.lexNumber()
		case isNameStart(c):
			start := l.pos
			for l.pos < len(l.src) && (isNameChar(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			// Trailing dots belong to the triple terminator, not the name.
			for l.pos > start && l.src[l.pos-1] == '.' {
				l.pos--
			}
			word := l.src[start:l.pos]
			if l.pos < len(l.src) && l.src[l.pos] == ':' {
				// prefixed name: prefix:local
				l.pos++
				lstart := l.pos
				for l.pos < len(l.src) && (isNameChar(l.src[l.pos]) || l.src[l.pos] == '/' || l.src[l.pos] == '.') {
					l.pos++
				}
				for l.pos > lstart && l.src[l.pos-1] == '.' {
					l.pos--
				}
				l.emit(tokPrefixed, word+":"+l.src[lstart:l.pos], start)
				break
			}
			if keywords[strings.ToUpper(word)] {
				l.emit(tokKeyword, strings.ToUpper(word), start)
			} else {
				return nil, fmt.Errorf("sparql: unexpected identifier %q at %d", word, start)
			}
		default:
			return nil, fmt.Errorf("sparql: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		// A dot not followed by a digit terminates the number (triple dot).
		if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || !isDigit(l.src[l.pos+1])) {
			break
		}
		l.pos++
	}
	l.emit(tokNumber, l.src[start:l.pos], start)
}

func (l *lexer) emit(k tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func isDigit(c byte) bool     { return c >= '0' && c <= '9' }
func isNameStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isNameChar(c byte) bool  { return isNameStart(c) || isDigit(c) }
