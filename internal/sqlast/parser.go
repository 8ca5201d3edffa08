package sqlast

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a SELECT or UNION statement in the engine dialect.
// Keywords are case-insensitive; identifiers are case-sensitive.
func Parse(src string) (Statement, error) {
	p, err := newSQLParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != sqlEOF {
		return nil, fmt.Errorf("sqlast: unexpected %q after statement", p.peek().text)
	}
	return st, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) Statement {
	st, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return st
}

type sqlTokenKind uint8

const (
	sqlEOF sqlTokenKind = iota
	sqlIdent
	sqlKeyword
	sqlNumber
	sqlString
	sqlBytes
	sqlOp
	sqlLParen
	sqlRParen
	sqlComma
	sqlDot
	sqlStar
	sqlParam // ?N or ?N:kind; text is what follows the '?'
)

type sqlToken struct {
	kind sqlTokenKind
	text string // keywords are upper-cased
	pos  int
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "AND": true,
	"OR": true, "NOT": true, "BETWEEN": true, "IS": true, "NULL": true,
	"EXISTS": true, "UNION": true, "AS": true, "COUNT": true,
}

func lexSQL(src string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, sqlToken{sqlLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, sqlToken{sqlRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, sqlToken{sqlComma, ",", i})
			i++
		case c == '.':
			toks = append(toks, sqlToken{sqlDot, ".", i})
			i++
		case c == '*':
			toks = append(toks, sqlToken{sqlStar, "*", i})
			i++
		case c == '?':
			j := i + 1
			for j < len(src) && (isSQLIdentChar(src[j]) || src[j] == ':') {
				j++
			}
			toks = append(toks, sqlToken{sqlParam, src[i+1 : j], i})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("sqlast: unterminated string at offset %d", i)
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, sqlToken{sqlString, sb.String(), i})
			i = j + 1
		case (c == 'X' || c == 'x') && i+1 < len(src) && src[i+1] == '\'':
			j := i + 2
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sqlast: unterminated hex literal at offset %d", i)
			}
			toks = append(toks, sqlToken{sqlBytes, src[i+2 : j], i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, sqlToken{sqlNumber, src[i:j], i})
			i = j
		case isSQLIdentStart(c):
			j := i
			for j < len(src) && isSQLIdentChar(src[j]) {
				j++
			}
			word := src[i:j]
			if up := strings.ToUpper(word); sqlKeywords[up] {
				toks = append(toks, sqlToken{sqlKeyword, up, i})
			} else {
				toks = append(toks, sqlToken{sqlIdent, word, i})
			}
			i = j
		default:
			for _, op := range []string{"||", "<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "/", "%"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, sqlToken{sqlOp, op, i})
					i += len(op)
					goto next
				}
			}
			return nil, fmt.Errorf("sqlast: unexpected character %q at offset %d", c, i)
		next:
		}
	}
	toks = append(toks, sqlToken{sqlEOF, "", len(src)})
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || c == '@' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSQLIdentChar(c byte) bool {
	return isSQLIdentStart(c) || (c >= '0' && c <= '9')
}

type sqlParser struct {
	toks []sqlToken
	pos  int
}

func newSQLParser(src string) (*sqlParser, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	return &sqlParser{toks: toks}, nil
}

func (p *sqlParser) peek() sqlToken { return p.toks[p.pos] }
func (p *sqlParser) next() sqlToken { t := p.toks[p.pos]; p.pos++; return t }

func (p *sqlParser) accept(kind sqlTokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expect(kind sqlTokenKind, text, what string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("sqlast: expected %s, found %q at offset %d", what, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *sqlParser) parseStatement() (Statement, error) {
	// DDL, INSERT and EXPLAIN lead with identifiers (not reserved
	// keywords, so they stay usable as table/column names).
	if t := p.peek(); t.kind == sqlIdent {
		switch strings.ToUpper(t.text) {
		case "CREATE":
			p.next()
			return p.parseCreate()
		case "INSERT":
			p.next()
			return p.parseInsert()
		case "EXPLAIN":
			p.next()
			ex := &Explain{}
			if a := p.peek(); a.kind == sqlIdent && strings.ToUpper(a.text) == "ANALYZE" {
				p.next()
				ex.Analyze = true
			}
			inner, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			if _, nested := inner.(*Explain); nested {
				return nil, fmt.Errorf("sqlast: EXPLAIN cannot be nested")
			}
			ex.Stmt = inner
			return ex, nil
		}
	}
	first, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != sqlKeyword || p.peek().text != "UNION" {
		first.OrderBy, err = p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		return first, nil
	}
	u := &Union{Selects: []*Select{first}}
	for p.accept(sqlKeyword, "UNION") {
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		u.Selects = append(u.Selects, s)
	}
	u.OrderBy, err = p.parseOrderBy()
	if err != nil {
		return nil, err
	}
	return u, nil
}

func (p *sqlParser) parseOrderBy() ([]OrderKey, error) {
	if !p.accept(sqlKeyword, "ORDER") {
		return nil, nil
	}
	if err := p.expect(sqlKeyword, "BY", "BY"); err != nil {
		return nil, err
	}
	var keys []OrderKey
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		k := OrderKey{Expr: e}
		if p.accept(sqlKeyword, "DESC") {
			k.Desc = true
		} else {
			p.accept(sqlKeyword, "ASC")
		}
		keys = append(keys, k)
		if !p.accept(sqlComma, "") {
			return keys, nil
		}
	}
}

func (p *sqlParser) parseSelect() (*Select, error) {
	if err := p.expect(sqlKeyword, "SELECT", "SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	s.Distinct = p.accept(sqlKeyword, "DISTINCT")
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		col := SelectCol{Expr: e}
		if p.accept(sqlKeyword, "AS") {
			t := p.next()
			if t.kind != sqlIdent {
				return nil, fmt.Errorf("sqlast: expected alias after AS, found %q", t.text)
			}
			col.Alias = t.text
		}
		s.Cols = append(s.Cols, col)
		if !p.accept(sqlComma, "") {
			break
		}
	}
	if err := p.expect(sqlKeyword, "FROM", "FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != sqlIdent {
			return nil, fmt.Errorf("sqlast: expected table name, found %q", t.text)
		}
		ref := TableRef{Table: t.text}
		if p.peek().kind == sqlIdent {
			ref.Alias = p.next().text
		}
		s.From = append(s.From, ref)
		if !p.accept(sqlComma, "") {
			break
		}
	}
	if p.accept(sqlKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

// Expression grammar, lowest to highest precedence:
// or > and > not > comparison/between/isnull > additive > multiplicative > concat > primary
func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(sqlKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(sqlKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.peek().kind == sqlKeyword && p.peek().text == "NOT" {
		// NOT EXISTS is handled in parseComparison via primary; check.
		if p.toks[p.pos+1].kind == sqlKeyword && p.toks[p.pos+1].text == "EXISTS" {
			return p.parseComparison()
		}
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// BETWEEN / IS NULL postfix forms.
	if p.accept(sqlKeyword, "BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(sqlKeyword, "AND", "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi}, nil
	}
	if p.accept(sqlKeyword, "IS") {
		neg := p.accept(sqlKeyword, "NOT")
		if err := p.expect(sqlKeyword, "NULL", "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	ops := map[string]BinOp{"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	if t := p.peek(); t.kind == sqlOp {
		if op, ok := ops[t.text]; ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *sqlParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != sqlOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) parseMultiplicative() (Expr, error) {
	l, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op BinOp
		switch {
		case t.kind == sqlStar:
			op = OpMul
		case t.kind == sqlOp && t.text == "/":
			op = OpDiv
		case t.kind == sqlOp && t.text == "%":
			op = OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) parseConcat() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == sqlOp && p.peek().text == "||" {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpConcat, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case sqlNumber:
		if strings.Contains(t.text, ".") {
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlast: bad number %q", t.text)
			}
			return &FloatLit{Value: v}, nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlast: bad number %q", t.text)
		}
		return &IntLit{Value: v}, nil
	case sqlString:
		return &StrLit{Value: t.text}, nil
	case sqlParam:
		num, kind, _ := strings.Cut(t.text, ":")
		n, err := strconv.Atoi(num)
		kinds := map[string]ParamKind{"": ParamText, "int": ParamInt, "float": ParamFloat}
		k, known := kinds[kind]
		if err != nil || n < 1 || !known {
			return nil, fmt.Errorf("sqlast: bad parameter %q at offset %d", "?"+t.text, t.pos)
		}
		return &Param{Slot: n - 1, Kind: k}, nil
	case sqlBytes:
		b, err := hex.DecodeString(t.text)
		if err != nil {
			return nil, fmt.Errorf("sqlast: bad hex literal %q", t.text)
		}
		return &BytesLit{Value: b}, nil
	case sqlLParen:
		// Subquery or parenthesized expression.
		if p.peek().kind == sqlKeyword && p.peek().text == "SELECT" {
			s, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(sqlRParen, "", "')'"); err != nil {
				return nil, err
			}
			return &Subquery{Select: s}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(sqlRParen, "", "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case sqlKeyword:
		switch t.text {
		case "NULL":
			return &NullLit{}, nil
		case "COUNT":
			if err := p.expect(sqlLParen, "", "'('"); err != nil {
				return nil, err
			}
			if err := p.expect(sqlStar, "", "'*'"); err != nil {
				return nil, err
			}
			if err := p.expect(sqlRParen, "", "')'"); err != nil {
				return nil, err
			}
			return &CountStar{}, nil
		case "EXISTS", "NOT":
			neg := false
			if t.text == "NOT" {
				neg = true
				if err := p.expect(sqlKeyword, "EXISTS", "EXISTS"); err != nil {
					return nil, err
				}
			}
			if err := p.expect(sqlLParen, "", "'('"); err != nil {
				return nil, err
			}
			s, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(sqlRParen, "", "')'"); err != nil {
				return nil, err
			}
			return &Exists{Select: s, Negate: neg}, nil
		}
		return nil, fmt.Errorf("sqlast: unexpected keyword %q at offset %d", t.text, t.pos)
	case sqlOp:
		if t.text == "-" {
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			switch l := inner.(type) {
			case *IntLit:
				return &IntLit{Value: -l.Value}, nil
			case *FloatLit:
				return &FloatLit{Value: -l.Value}, nil
			}
			return &Binary{Op: OpSub, L: &IntLit{Value: 0}, R: inner}, nil
		}
		return nil, fmt.Errorf("sqlast: unexpected operator %q at offset %d", t.text, t.pos)
	case sqlIdent:
		// Function call?
		if p.peek().kind == sqlLParen {
			p.next()
			f := &Func{Name: strings.ToUpper(t.text)}
			if p.peek().kind != sqlRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					f.Args = append(f.Args, a)
					if !p.accept(sqlComma, "") {
						break
					}
				}
			}
			if err := p.expect(sqlRParen, "", "')'"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Qualified or bare column.
		if p.accept(sqlDot, "") {
			c := p.next()
			if c.kind != sqlIdent {
				return nil, fmt.Errorf("sqlast: expected column after '.', found %q", c.text)
			}
			return &Col{Table: t.text, Column: c.text}, nil
		}
		return &Col{Column: t.text}, nil
	default:
		return nil, fmt.Errorf("sqlast: unexpected %q at offset %d", t.text, t.pos)
	}
}
