package sqlast

import (
	"fmt"
	"strings"
)

// Render produces the SQL text of a statement. The output parses back
// to an equivalent tree with Parse.
func Render(st Statement) string {
	var b strings.Builder
	renderStatement(&b, st)
	return b.String()
}

func renderStatement(b *strings.Builder, st Statement) {
	switch s := st.(type) {
	case *Select:
		renderSelect(b, s)
		renderOrderBy(b, s.OrderBy)
	case *Union:
		for i, sel := range s.Selects {
			if i > 0 {
				b.WriteString(" UNION ")
			}
			renderSelect(b, sel)
		}
		renderOrderBy(b, s.OrderBy)
	case *Explain:
		b.WriteString("EXPLAIN ")
		if s.Analyze {
			b.WriteString("ANALYZE ")
		}
		renderStatement(b, s.Stmt)
	case *CreateTable, *CreateIndex, *Insert:
		b.WriteString(s.String())
	default:
		panic(fmt.Sprintf("sqlast: unknown statement %T", st))
	}
}

func renderSelect(b *strings.Builder, s *Select) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(s.Cols) == 0 {
		b.WriteString("NULL")
	}
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(exprString(c.Expr))
		if c.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(c.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
		if t.Alias != "" && t.Alias != t.Table {
			b.WriteByte(' ')
			b.WriteString(t.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(exprString(s.Where))
	}
}

func renderOrderBy(b *strings.Builder, keys []OrderKey) {
	if len(keys) == 0 {
		return
	}
	b.WriteString(" ORDER BY ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(exprString(k.Expr))
		if k.Desc {
			b.WriteString(" DESC")
		}
	}
}

func (e *Explain) String() string { return Render(e) }

func (c *CreateTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", c.Name)
	for i, col := range c.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", col.Name, col.Type)
	}
	b.WriteString(")")
	return b.String()
}

func (c *CreateIndex) String() string {
	return fmt.Sprintf("CREATE INDEX %s ON %s (%s)", c.Name, c.Table, strings.Join(c.Cols, ", "))
}

func (ins *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", ins.Table)
	for i, row := range ins.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// precedence levels, low to high, for minimal parenthesization.
func prec(e Expr) int {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpOr:
			return 1
		case OpAnd:
			return 2
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			return 3
		case OpAdd, OpSub:
			return 4
		case OpMul, OpDiv, OpMod:
			return 5
		case OpConcat:
			return 6
		}
	case *Not:
		return 2 // binds like AND operand
	case *Between, *IsNull:
		return 3
	}
	return 10
}

func exprString(e Expr) string {
	var b strings.Builder
	renderExprTo(&b, e)
	return b.String()
}

func renderExpr(e Expr) string { return exprString(e) }

func renderExprTo(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Col, *IntLit, *FloatLit, *StrLit, *BytesLit, *NullLit, *CountStar:
		b.WriteString(e.(fmt.Stringer).String())
	case *Binary:
		renderChild(b, x.L, prec(e))
		b.WriteByte(' ')
		b.WriteString(x.Op.String())
		b.WriteByte(' ')
		renderChild(b, x.R, prec(e)+1) // left-assoc: right child needs strictly higher
	case *Not:
		b.WriteString("NOT ")
		renderChild(b, x.X, prec(e)+1)
	case *Between:
		renderChild(b, x.X, 4)
		b.WriteString(" BETWEEN ")
		renderChild(b, x.Lo, 4)
		b.WriteString(" AND ")
		renderChild(b, x.Hi, 4)
	case *IsNull:
		renderChild(b, x.X, 4)
		if x.Negate {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *Func:
		b.WriteString(x.Name)
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExprTo(b, a)
		}
		b.WriteByte(')')
	case *Exists:
		if x.Negate {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		renderSelect(b, x.Select)
		b.WriteByte(')')
	case *Subquery:
		b.WriteByte('(')
		renderSelect(b, x.Select)
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("sqlast: unknown expression %T", e))
	}
}

func renderChild(b *strings.Builder, e Expr, parentPrec int) {
	if prec(e) < parentPrec {
		b.WriteByte('(')
		renderExprTo(b, e)
		b.WriteByte(')')
	} else {
		renderExprTo(b, e)
	}
}
