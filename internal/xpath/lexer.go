package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokSlash
	tokDoubleSlash
	tokName     // NCName
	tokStar     // '*' as wildcard
	tokAt       // '@'
	tokAxis     // axis name followed by '::'
	tokLBracket // '['
	tokRBracket // ']'
	tokLParen   // '('
	tokRParen   // ')'
	tokString   // 'literal' or "literal"
	tokNumber   // numeric literal
	tokOperator // = != < <= > >= + - | , and or div mod and '*' as multiply
	tokDot      // '.'
	tokDotDot   // '..'
	tokFunc     // NCName followed by '(' (function call or kind test)
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
	end  int // one past the token's last byte; set for tokString and tokNumber
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of expression"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer tokenizes an XPath expression, applying the XPath 1.0
// disambiguation rules: a '*' (and the names and/or/div/mod) is an
// operator when the preceding token permits an operator to follow;
// an NCName directly followed by '(' is a function name, and one
// followed by '::' is an axis name.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.tokens = append(l.tokens, tok)
		if tok.kind == tokEOF {
			return l.tokens, nil
		}
	}
}

// operatorMayFollow reports whether, per the XPath disambiguation
// rule, the previous token allows the next '*' or name to be read as
// an operator.
func (l *lexer) operatorMayFollow() bool {
	if len(l.tokens) == 0 {
		return false
	}
	switch prev := l.tokens[len(l.tokens)-1]; prev.kind {
	case tokAt, tokAxis, tokLParen, tokLBracket, tokSlash, tokDoubleSlash, tokOperator, tokFunc:
		return false
	default:
		return true
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '/':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '/' {
			l.pos++
			return token{kind: tokDoubleSlash, text: "//", pos: start}, nil
		}
		return token{kind: tokSlash, text: "/", pos: start}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case c == ']':
		l.pos++
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '@':
		l.pos++
		return token{kind: tokAt, text: "@", pos: start}, nil
	case c == '|' || c == '+' || c == '-' || c == ',':
		l.pos++
		return token{kind: tokOperator, text: string(c), pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokOperator, text: "=", pos: start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOperator, text: "!=", pos: start}, nil
		}
		return token{}, fmt.Errorf("xpath: unexpected '!' at offset %d", l.pos)
	case c == '<' || c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOperator, text: l.src[start:l.pos], pos: start}, nil
		}
		return token{kind: tokOperator, text: string(c), pos: start}, nil
	case c == '*':
		l.pos++
		if l.operatorMayFollow() {
			return token{kind: tokOperator, text: "*", pos: start}, nil
		}
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '\'' || c == '"':
		quote := c
		end := strings.IndexByte(l.src[l.pos+1:], quote)
		if end < 0 {
			return token{}, fmt.Errorf("xpath: unterminated string literal at offset %d", l.pos)
		}
		text := l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return token{kind: tokString, text: text, pos: start, end: l.pos}, nil
	case c == '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
			l.pos += 2
			return token{kind: tokDotDot, text: "..", pos: start}, nil
		}
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case isDigit(c):
		return l.lexNumber()
	case isNameStart(c):
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		name := l.src[start:l.pos]
		// Operator names, when an operator may appear here.
		switch name {
		case "and", "or", "div", "mod":
			if l.operatorMayFollow() {
				return token{kind: tokOperator, text: name, pos: start}, nil
			}
		}
		// Axis name?
		save := l.pos
		l.skipSpace()
		if strings.HasPrefix(l.src[l.pos:], "::") {
			if _, ok := axisByName[name]; !ok {
				return token{}, fmt.Errorf("xpath: unknown axis %q at offset %d", name, start)
			}
			l.pos += 2
			return token{kind: tokAxis, text: name, pos: start}, nil
		}
		// Function name?
		if l.pos < len(l.src) && l.src[l.pos] == '(' {
			return token{kind: tokFunc, text: name, pos: start}, nil
		}
		l.pos = save
		return token{kind: tokName, text: name, pos: start}, nil
	default:
		return token{}, fmt.Errorf("xpath: unexpected character %q at offset %d", c, l.pos)
	}
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
		l.pos++
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, fmt.Errorf("xpath: bad number %q at offset %d", text, start)
	}
	return token{kind: tokNumber, text: text, num: v, pos: start, end: l.pos}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || isDigit(c) || c == '-' || c == '.'
}
