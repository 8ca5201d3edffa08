package sqlast

import (
	"fmt"
	"strconv"
	"strings"
)

// Render produces the SQL text of a statement. The output parses back
// to an equivalent tree with Parse.
func Render(st Statement) string {
	var b renderer
	renderStatement(&b, st)
	return b.String()
}

// Split is a statement's text cut at its parameter slots: parts[i] is
// followed by slot slots[i], and the last part by nothing.
type Split struct {
	parts []string
	slots []int
}

// RenderSplit renders a statement around its parameter slots, so that
// a caller holding the slots' values has the text of any binding
// without rendering the statement again.
func RenderSplit(st Statement) Split {
	b := renderer{split: true}
	renderStatement(&b, st)
	var sp Split
	text, from := b.String(), 0
	for _, c := range b.cuts {
		sp.parts = append(sp.parts, text[from:c.at])
		sp.slots = append(sp.slots, c.slot)
		from = c.at
	}
	sp.parts = append(sp.parts, text[from:])
	return sp
}

// Splice is the statement's text with lits[k] standing where slot k
// stood: what Render makes of the statement with its slots so replaced.
func (sp Split) Splice(lits []Expr) string {
	var b renderer
	n := 0
	for _, p := range sp.parts {
		n += len(p)
	}
	b.Grow(n + 16*len(sp.slots))
	for i, p := range sp.parts {
		b.WriteString(p)
		if i < len(sp.slots) {
			renderExprTo(&b, lits[sp.slots[i]])
		}
	}
	return b.String()
}

// renderer is the text under construction. With split set a parameter
// slot writes nothing and is recorded as a cut (RenderSplit).
type renderer struct {
	strings.Builder
	split bool
	cuts  []cut
}

// cut is one parameter slot's place in split text.
type cut struct{ at, slot int }

func renderStatement(b *renderer, st Statement) {
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

func renderSelect(b *renderer, s *Select) {
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
		renderExprTo(b, c.Expr)
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
		renderExprTo(b, s.Where)
	}
}

func renderOrderBy(b *renderer, keys []OrderKey) {
	if len(keys) == 0 {
		return
	}
	b.WriteString(" ORDER BY ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		renderExprTo(b, k.Expr)
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

func renderExpr(e Expr) string {
	var b renderer
	renderExprTo(&b, e)
	return b.String()
}

func renderExprTo(b *renderer, e Expr) {
	switch x := e.(type) {
	case *Col, *IntLit, *FloatLit, *StrLit, *BytesLit, *NullLit, *CountStar:
		b.WriteString(e.(fmt.Stringer).String())
	case *Param:
		if b.split {
			b.cuts = append(b.cuts, cut{at: b.Len(), slot: x.Slot})
			return
		}
		b.WriteByte('?')
		b.WriteString(strconv.Itoa(x.Slot + 1))
		switch x.Kind {
		case ParamInt:
			b.WriteString(":int")
		case ParamFloat:
			b.WriteString(":float")
		}
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

func renderChild(b *renderer, e Expr, parentPrec int) {
	if prec(e) < parentPrec {
		b.WriteByte('(')
		renderExprTo(b, e)
		b.WriteByte(')')
	} else {
		renderExprTo(b, e)
	}
}
