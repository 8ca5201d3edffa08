package xpath

import (
	"fmt"
)

// Parse parses a complete XPath expression: a location path or a
// union of location paths.
func Parse(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("xpath: unexpected %s after expression", p.peek())
	}
	switch e := expr.(type) {
	case *Path, *Union:
		return e, nil
	default:
		return nil, fmt.Errorf("xpath: expression %q is not a location path", src)
	}
}

// ParsePath parses an expression that must be a single location path.
func ParsePath(src string) (*Path, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p, ok := e.(*Path)
	if !ok {
		return nil, fmt.Errorf("xpath: %q is a union, not a single path", src)
	}
	return p, nil
}

// MustParse is Parse that panics on error, for statically known
// query sets.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	tokens []token
	pos    int
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{tokens: toks}, nil
}

func (p *parser) peek() token { return p.tokens[p.pos] }
func (p *parser) next() token { t := p.tokens[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("xpath: expected %s, found %s at offset %d", what, t, t.pos)
	}
	return t, nil
}

// parseExpr = parseOr, with '|' union handling at the top level.
func (p *parser) parseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.peekOp("and") {
		p.next()
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseEquality() (Expr, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.peekOp("="):
			op = OpEq
		case p.peekOp("!="):
			op = OpNe
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseRelational() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.peekOp("<"):
			op = OpLt
		case p.peekOp("<="):
			op = OpLe
		case p.peekOp(">"):
			op = OpGt
		case p.peekOp(">="):
			op = OpGe
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.peekOp("+"):
			op = OpAdd
		case p.peekOp("-"):
			op = OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.peekOp("*"):
			op = OpMul
		case p.peekOp("div"):
			op = OpDiv
		case p.peekOp("mod"):
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

// parseUnion = parsePrimary ('|' parsePrimary)*; operands of '|' must
// be location paths.
func (p *parser) parseUnion() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if !p.peekOp("|") {
		return left, nil
	}
	u := &Union{}
	lp, ok := left.(*Path)
	if !ok {
		return nil, fmt.Errorf("xpath: '|' operand must be a location path")
	}
	u.Paths = append(u.Paths, lp)
	for p.peekOp("|") {
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		rp, ok := right.(*Path)
		if !ok {
			return nil, fmt.Errorf("xpath: '|' operand must be a location path")
		}
		u.Paths = append(u.Paths, rp)
	}
	return u, nil
}

func (p *parser) peekOp(text string) bool {
	t := p.peek()
	return t.kind == tokOperator && t.text == text
}

// parsePrimary = string | number | '(' Expr ')' | function call |
// location path | unary minus.
func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.peek(); t.kind {
	case tokString:
		p.next()
		return &Literal{Value: t.text, Pos: t.pos, End: t.end}, nil
	case tokNumber:
		p.next()
		return &Number{Value: t.num, Pos: t.pos, End: t.end}, nil
	case tokOperator:
		if t.text == "-" {
			p.next()
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: OpSub, L: &Number{Value: 0}, R: inner}, nil
		}
		return nil, fmt.Errorf("xpath: unexpected operator %s at offset %d", t, t.pos)
	case tokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil
	case tokFunc:
		switch t.text {
		case "text", "node":
			// Kind test: parse as a path step.
			return p.parsePath()
		}
		return p.parseCall()
	case tokSlash, tokDoubleSlash, tokName, tokStar, tokAt, tokAxis, tokDot, tokDotDot:
		return p.parsePath()
	default:
		return nil, fmt.Errorf("xpath: unexpected %s at offset %d", t, t.pos)
	}
}

func (p *parser) parseCall() (Expr, error) {
	name := p.next().text
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	call := &Call{Name: name}
	if p.peek().kind != tokRParen {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if !p.peekOp(",") {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	switch call.Name {
	case "not", "count":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("xpath: %s() takes exactly one argument", call.Name)
		}
	case "position", "last":
		if len(call.Args) != 0 {
			return nil, fmt.Errorf("xpath: %s() takes no arguments", call.Name)
		}
	default:
		return nil, fmt.Errorf("xpath: unsupported function %q", call.Name)
	}
	return call, nil
}

// parsePath parses a location path.
func (p *parser) parsePath() (Expr, error) {
	path := &Path{}
	switch p.peek().kind {
	case tokSlash:
		p.next()
		path.Absolute = true
		// A bare '/' selects the root; allow it only at end of input or
		// before a step.
		if !p.startsStep() {
			return path, nil
		}
	case tokDoubleSlash:
		p.next()
		path.Absolute = true
		path.Steps = append(path.Steps, &Step{Axis: DescendantOrSelf, Test: AnyKindTest})
	}
	for {
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
		switch p.peek().kind {
		case tokSlash:
			p.next()
		case tokDoubleSlash:
			p.next()
			path.Steps = append(path.Steps, &Step{Axis: DescendantOrSelf, Test: AnyKindTest})
		default:
			return path, nil
		}
	}
}

// startsStep reports whether the next token can begin a location step.
func (p *parser) startsStep() bool {
	switch t := p.peek(); t.kind {
	case tokName, tokStar, tokAt, tokAxis, tokDot, tokDotDot:
		return true
	case tokFunc:
		return t.text == "text" || t.text == "node"
	}
	return false
}

func (p *parser) parseStep() (*Step, error) {
	step := &Step{Axis: Child}
	switch t := p.peek(); t.kind {
	case tokDot:
		p.next()
		step.Axis = Self
		step.Test = AnyKindTest
		return step, nil
	case tokDotDot:
		p.next()
		step.Axis = Parent
		step.Test = AnyKindTest
		return step, nil
	case tokAt:
		p.next()
		step.Axis = Attribute
	case tokAxis:
		p.next()
		step.Axis = axisByName[t.text]
	}
	// Node test.
	switch t := p.next(); t.kind {
	case tokName:
		step.Test = NameTest
		step.Name = t.text
	case tokStar:
		step.Test = NameTest
		step.Name = ""
	case tokFunc:
		switch t.text {
		case "text":
			step.Test = TextTest
		case "node":
			step.Test = AnyKindTest
		default:
			return nil, fmt.Errorf("xpath: unexpected function %q as node test at offset %d", t.text, t.pos)
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("xpath: expected node test, found %s at offset %d", t, t.pos)
	}
	if step.Axis == Attribute && step.Test != NameTest {
		return nil, fmt.Errorf("xpath: attribute axis requires a name test")
	}
	// Predicates.
	for p.peek().kind == tokLBracket {
		p.next()
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		step.Predicates = append(step.Predicates, pred)
	}
	return step, nil
}
