// Package xpath provides the XPath lexer, parser and abstract syntax
// tree for the XPath subset the paper handles (Section 1): all 13
// axes, abbreviations (//, @, ., ..), wildcards, text() and node()
// tests, path union, nested path expressions, and logical, arithmetic,
// comparison and positional predicates.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is an XPath axis.
type Axis uint8

const (
	Child Axis = iota
	Descendant
	DescendantOrSelf
	Self
	Parent
	Ancestor
	AncestorOrSelf
	Following
	FollowingSibling
	Preceding
	PrecedingSibling
	Attribute
)

var axisNames = map[Axis]string{
	Child:            "child",
	Descendant:       "descendant",
	DescendantOrSelf: "descendant-or-self",
	Self:             "self",
	Parent:           "parent",
	Ancestor:         "ancestor",
	AncestorOrSelf:   "ancestor-or-self",
	Following:        "following",
	FollowingSibling: "following-sibling",
	Preceding:        "preceding",
	PrecedingSibling: "preceding-sibling",
	Attribute:        "attribute",
}

var axisByName = func() map[string]Axis {
	m := make(map[string]Axis, len(axisNames))
	for a, n := range axisNames {
		m[n] = a
	}
	return m
}()

func (a Axis) String() string { return axisNames[a] }

// Forward reports whether the axis is a forward vertical axis for PPF
// purposes (child, descendant, descendant-or-self, self, attribute).
func (a Axis) Forward() bool {
	switch a {
	case Child, Descendant, DescendantOrSelf, Self, Attribute:
		return true
	}
	return false
}

// Backward reports whether the axis is a backward vertical axis
// (parent, ancestor, ancestor-or-self).
func (a Axis) Backward() bool {
	switch a {
	case Parent, Ancestor, AncestorOrSelf:
		return true
	}
	return false
}

// Horizontal reports whether the axis is one of the document-order
// axes that always form single-step PPFs.
func (a Axis) Horizontal() bool {
	switch a {
	case Following, FollowingSibling, Preceding, PrecedingSibling:
		return true
	}
	return false
}

// TestKind discriminates node tests.
type TestKind uint8

const (
	NameTest    TestKind = iota // a name, or "*" when Step.Name is empty
	TextTest                    // text()
	AnyKindTest                 // node()
)

// Step is one location step.
type Step struct {
	Axis       Axis
	Test       TestKind
	Name       string // name test; empty means wildcard
	Predicates []Expr
}

// Wildcard reports whether the step's node test matches any element
// name.
func (s *Step) Wildcard() bool { return s.Test == NameTest && s.Name == "" }

func (s *Step) String() string {
	var b strings.Builder
	switch {
	case s.Axis == Attribute:
		b.WriteByte('@')
	case s.Axis == Child:
		// default axis, no prefix
	default:
		b.WriteString(s.Axis.String())
		b.WriteString("::")
	}
	switch s.Test {
	case TextTest:
		b.WriteString("text()")
	case AnyKindTest:
		b.WriteString("node()")
	default:
		if s.Name == "" {
			b.WriteByte('*')
		} else {
			b.WriteString(s.Name)
		}
	}
	for _, p := range s.Predicates {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

// Path is a location path.
type Path struct {
	Absolute bool
	Steps    []*Step
}

func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 || p.Absolute {
			// Render descendant-or-self::node() steps back as '//' when
			// they came from the abbreviation.
			b.WriteByte('/')
		}
		b.WriteString(s.String())
	}
	if len(p.Steps) == 0 && p.Absolute {
		b.WriteByte('/')
	}
	return b.String()
}

// Expr is a node of the expression tree. Implementations: *Path,
// *Binary, *Literal, *Number, *Call, *Union.
type Expr interface {
	fmt.Stringer
	exprNode()
}

func (*Path) exprNode() {}

// Op is a binary operator.
type Op uint8

const (
	OpOr Op = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

var opNames = map[Op]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpMod: "mod",
}

func (o Op) String() string { return opNames[o] }

// Comparison reports whether the operator compares values.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// Logical reports whether the operator is 'and' or 'or'.
func (o Op) Logical() bool { return o == OpOr || o == OpAnd }

// Arithmetic reports whether the operator computes a number.
func (o Op) Arithmetic() bool { return o >= OpAdd }

// Binary is a binary expression.
type Binary struct {
	Op   Op
	L, R Expr
}

func (b *Binary) exprNode() {}
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Literal is a string literal. Pos and End delimit it in the parsed
// source, quotes included; both are 0 for a node not read from source.
type Literal struct {
	Value    string
	Pos, End int
}

func (l *Literal) exprNode() {}

// String quotes the value with whichever of ' and " it does not
// contain: XPath 1.0 has no escape, so a parsed literal never contains
// both, and the rendering re-parses to the same value.
func (l *Literal) String() string {
	if strings.IndexByte(l.Value, '\'') >= 0 {
		return `"` + l.Value + `"`
	}
	return "'" + l.Value + "'"
}

// Number is a numeric literal. A bare number predicate like [3] is a
// positional predicate. Pos and End delimit it in the parsed source;
// both are 0 for a node the parser synthesised (the 0 of a unary minus).
type Number struct {
	Value    float64
	Pos, End int
}

func (n *Number) exprNode() {}
func (n *Number) String() string {
	// 'f' keeps large values in plain decimal notation — the lexer has
	// no exponent syntax, so the rendering must not introduce one.
	return strconv.FormatFloat(n.Value, 'f', -1, 64)
}

// Call is a function call. Supported functions: not(expr),
// count(path), position(), last().
type Call struct {
	Name string
	Args []Expr
}

func (c *Call) exprNode() {}
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Name + "(" + strings.Join(args, ", ") + ")"
}

// Union is a top-level path union (the '|' operator).
type Union struct{ Paths []*Path }

func (u *Union) exprNode() {}
func (u *Union) String() string {
	parts := make([]string, len(u.Paths))
	for i, p := range u.Paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, " | ")
}
