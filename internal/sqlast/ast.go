// Package sqlast defines the abstract syntax tree, renderer and
// parser for the SQL dialect the engine executes and the translators
// emit. The dialect is the subset of SQL the paper's translations
// need: SELECT [DISTINCT] with multi-table FROM, WHERE with logical
// connectives, comparisons, BETWEEN, string/byte concatenation (||),
// REGEXP_LIKE, EXISTS and scalar COUNT subqueries, IS [NOT] NULL,
// ORDER BY, and UNION.
package sqlast

import (
	"fmt"
	"strings"
)

// Statement is a top-level statement: *Select or *Union.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Cols     []SelectCol
	From     []TableRef
	Where    Expr // nil means no WHERE clause
	OrderBy  []OrderKey
}

func (*Select) stmtNode() {}

// Union is a UNION (set semantics) of SELECT statements.
type Union struct {
	Selects []*Select
	OrderBy []OrderKey
}

func (*Union) stmtNode() {}

// Explain is 'EXPLAIN [ANALYZE] <stmt>': render the physical plan of
// the wrapped statement, executing it first when Analyze is set so
// each operator carries its runtime statistics.
type Explain struct {
	Analyze bool
	Stmt    Statement
}

func (*Explain) stmtNode() {}

// SelectCol is one projected column.
type SelectCol struct {
	Expr  Expr
	Alias string // optional
}

// TableRef is one table in the FROM clause.
type TableRef struct {
	Table string
	Alias string // optional; the effective name is Alias or Table
}

// Name returns the name by which columns reference this table.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Expr is a scalar or boolean expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Col references a column, optionally qualified by a table name or
// alias.
type Col struct {
	Table  string // may be empty if unambiguous
	Column string
}

func (*Col) exprNode() {}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

func (*IntLit) exprNode() {}

// StrLit is a string literal.
type StrLit struct{ Value string }

func (*StrLit) exprNode() {}

// BytesLit is a binary-string literal, rendered as X'hex'. The
// translators use it for Dewey position bounds.
type BytesLit struct{ Value []byte }

func (*BytesLit) exprNode() {}

// FloatLit is a floating-point literal.
type FloatLit struct{ Value float64 }

func (*FloatLit) exprNode() {}

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) exprNode() {}

// ParamKind is the type of the value a parameter slot takes.
type ParamKind uint8

const (
	ParamText ParamKind = iota
	ParamInt
	ParamFloat
)

// Param is a parameter slot: a value the statement's text leaves open
// and each execution supplies (engine.Prepared.RunArgs). Slot counts
// from 0; it renders as ?1 for a text slot and ?1:int / ?1:float for a
// number slot, the kind being part of what a plan is compiled for. A
// slot may occur more than once in a statement.
type Param struct {
	Slot int
	Kind ParamKind
}

func (*Param) exprNode() {}

// BinOp is a binary operator.
type BinOp uint8

const (
	OpAnd BinOp = iota
	OpOr
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
	OpConcat // || : byte/string concatenation
)

var binOpNames = map[BinOp]string{
	OpAnd: "AND", OpOr: "OR", OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpConcat: "||",
}

func (o BinOp) String() string { return binOpNames[o] }

// Binary is a binary expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) exprNode() {}

// Not is logical negation.
type Not struct{ X Expr }

func (*Not) exprNode() {}

// Between is 'X BETWEEN Lo AND Hi' (inclusive both ends).
type Between struct {
	X, Lo, Hi Expr
}

func (*Between) exprNode() {}

// IsNull is 'X IS NULL' or, with Negate, 'X IS NOT NULL'.
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) exprNode() {}

// Func is a scalar function call. The engine implements REGEXP_LIKE,
// LENGTH, LOWER, UPPER and ABS.
type Func struct {
	Name string
	Args []Expr
}

func (*Func) exprNode() {}

// Exists is 'EXISTS (select)' or, with Negate, 'NOT EXISTS (select)'.
// The subselect may be correlated: its WHERE clause may reference
// tables of enclosing queries.
type Exists struct {
	Select *Select
	Negate bool
}

func (*Exists) exprNode() {}

// Subquery is a scalar subquery, e.g. '(SELECT COUNT(*) FROM ...)'.
// The subselect must project exactly one column; it yields NULL when
// empty and its first row's value otherwise.
type Subquery struct{ Select *Select }

func (*Subquery) exprNode() {}

// CountStar is COUNT(*) in a projection.
type CountStar struct{}

func (*CountStar) exprNode() {}

// helpers used heavily by the translators

// C builds a column reference.
func C(table, column string) *Col { return &Col{Table: table, Column: column} }

// Eq builds an equality comparison.
func Eq(l, r Expr) Expr { return &Binary{Op: OpEq, L: l, R: r} }

// And folds a list of conjuncts, dropping nils; it returns nil when
// all are nil.
func And(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// Or folds a list of disjuncts, dropping nils.
func Or(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: OpOr, L: out, R: e}
		}
	}
	return out
}

// Str builds a string literal.
func Str(s string) *StrLit { return &StrLit{Value: s} }

// Int builds an integer literal.
func Int(v int64) *IntLit { return &IntLit{Value: v} }

// Bytes builds a binary literal.
func Bytes(b []byte) *BytesLit { return &BytesLit{Value: b} }

// RegexpLike builds REGEXP_LIKE(x, pattern).
func RegexpLike(x Expr, pattern string) Expr {
	return &Func{Name: "REGEXP_LIKE", Args: []Expr{x, Str(pattern)}}
}

// AddConjunct adds a conjunct to a select's WHERE clause.
func (s *Select) AddConjunct(e Expr) {
	if e == nil {
		return
	}
	s.Where = And(s.Where, e)
}

// HasTable reports whether the FROM clause already contains a table
// with the given effective name.
func (s *Select) HasTable(name string) bool {
	for _, t := range s.From {
		if t.Name() == name {
			return true
		}
	}
	return false
}

// String renders statements via the renderer; defined here so the
// interface is self-contained.
func (s *Select) String() string { return Render(s) }
func (u *Union) String() string  { return Render(u) }

func (c *Col) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}
func (l *IntLit) String() string   { return fmt.Sprintf("%d", l.Value) }
func (l *FloatLit) String() string { return trimFloat(l.Value) }
func (l *StrLit) String() string   { return "'" + strings.ReplaceAll(l.Value, "'", "''") + "'" }
func (l *BytesLit) String() string { return fmt.Sprintf("X'%X'", l.Value) }
func (*NullLit) String() string    { return "NULL" }
func (p *Param) String() string    { return renderExpr(p) }
func (b *Binary) String() string   { return renderExpr(b) }
func (n *Not) String() string      { return renderExpr(n) }
func (b *Between) String() string  { return renderExpr(b) }
func (i *IsNull) String() string   { return renderExpr(i) }
func (f *Func) String() string     { return renderExpr(f) }
func (e *Exists) String() string   { return renderExpr(e) }
func (s *Subquery) String() string { return renderExpr(s) }
func (*CountStar) String() string  { return "COUNT(*)" }

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// MapLeaves returns e with every leaf — column, literal, parameter
// slot, COUNT(*) — replaced by what fn makes of it, sub-selects
// included. A subtree fn leaves as it is is shared with e, not copied;
// e itself is never modified.
func MapLeaves(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Binary:
		if l, r := MapLeaves(x.L, fn), MapLeaves(x.R, fn); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *Not:
		if in := MapLeaves(x.X, fn); in != x.X {
			return &Not{X: in}
		}
	case *Between:
		if v, lo, hi := MapLeaves(x.X, fn), MapLeaves(x.Lo, fn), MapLeaves(x.Hi, fn); v != x.X || lo != x.Lo || hi != x.Hi {
			return &Between{X: v, Lo: lo, Hi: hi}
		}
	case *IsNull:
		if in := MapLeaves(x.X, fn); in != x.X {
			return &IsNull{X: in, Negate: x.Negate}
		}
	case *Func:
		var args []Expr // nil until an argument changes
		for i, a := range x.Args {
			if m := MapLeaves(a, fn); m != a {
				if args == nil {
					args = append([]Expr(nil), x.Args...)
				}
				args[i] = m
			}
		}
		if args != nil {
			return &Func{Name: x.Name, Args: args}
		}
	case *Exists:
		if sel := x.Select.mapLeaves(fn); sel != x.Select {
			return &Exists{Select: sel, Negate: x.Negate}
		}
	case *Subquery:
		if sel := x.Select.mapLeaves(fn); sel != x.Select {
			return &Subquery{Select: sel}
		}
	default:
		return fn(e)
	}
	return e
}

// Params lists the parameter slots e holds, sub-selects included, in
// the order MapLeaves meets them.
func Params(e Expr) []*Param {
	var out []*Param
	MapLeaves(e, func(leaf Expr) Expr {
		if p, ok := leaf.(*Param); ok {
			out = append(out, p)
		}
		return leaf
	})
	return out
}

// HasParam reports whether e holds a parameter slot.
func HasParam(e Expr) bool { return len(Params(e)) > 0 }

// mapLeaves is MapLeaves over a select's projection, WHERE and ORDER BY.
func (s *Select) mapLeaves(fn func(Expr) Expr) *Select {
	var out *Select // nil until something changes
	edit := func() *Select {
		if out == nil {
			c := *s
			c.Cols = append([]SelectCol(nil), s.Cols...)
			c.OrderBy = append([]OrderKey(nil), s.OrderBy...)
			out = &c
		}
		return out
	}
	for i, c := range s.Cols {
		if m := MapLeaves(c.Expr, fn); m != c.Expr {
			edit().Cols[i].Expr = m
		}
	}
	if w := MapLeaves(s.Where, fn); w != s.Where {
		edit().Where = w
	}
	for i, k := range s.OrderBy {
		if m := MapLeaves(k.Expr, fn); m != k.Expr {
			edit().OrderBy[i].Expr = m
		}
	}
	if out == nil {
		return s
	}
	return out
}

// MapStatementLeaves is MapLeaves over the selects of a SELECT or UNION
// (whose own ORDER BY names output columns and stays as it is).
func MapStatementLeaves(st Statement, fn func(Expr) Expr) Statement {
	switch s := st.(type) {
	case *Select:
		return s.mapLeaves(fn)
	case *Union:
		var sels []*Select // nil until a branch changes
		for i, sel := range s.Selects {
			if m := sel.mapLeaves(fn); m != sel {
				if sels == nil {
					sels = append([]*Select(nil), s.Selects...)
				}
				sels[i] = m
			}
		}
		if sels != nil {
			return &Union{Selects: sels, OrderBy: s.OrderBy}
		}
	}
	return st
}
