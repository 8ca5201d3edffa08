package core

import (
	"fmt"
	"math"

	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// translatePredicate translates one XPath predicate attached to the
// prominent step described by ctx, producing a three-valued SQL
// condition. Conditions requiring the predicated relation's paths
// join (Table 5-2) are added to sel on demand.
func (b *builder) translatePredicate(sel *sqlast.Select, e xpath.Expr, ctx chainCtx) (sqlCond, error) {
	switch x := e.(type) {
	case *xpath.Binary:
		switch {
		case x.Op == xpath.OpAnd:
			l, err := b.translatePredicate(sel, x.L, ctx)
			if err != nil || l.isFalse {
				return l, err
			}
			r, err := b.translatePredicate(sel, x.R, ctx)
			if err != nil || r.isFalse {
				return r, err
			}
			if l.isTrue {
				return r, nil
			}
			if r.isTrue {
				return l, nil
			}
			return dyn(sqlast.And(l.expr, r.expr)), nil
		case x.Op == xpath.OpOr:
			l, err := b.translatePredicate(sel, x.L, ctx)
			if err != nil || l.isTrue {
				return l, err
			}
			r, err := b.translatePredicate(sel, x.R, ctx)
			if err != nil || r.isTrue {
				return r, err
			}
			return l.or(r), nil
		case x.Op.Comparison():
			return b.translateComparison(x, ctx)
		default:
			return sqlCond{}, fmt.Errorf("a bare arithmetic predicate is positional and not supported in SQL translation")
		}
	case *xpath.Call:
		switch x.Name {
		case "not":
			inner, err := b.translatePredicate(sel, x.Args[0], ctx)
			if err != nil {
				return sqlCond{}, err
			}
			switch {
			case inner.isTrue:
				return condFalse, nil
			case inner.isFalse:
				return condTrue, nil
			default:
				return dyn(negate(inner.expr)), nil
			}
		case "last":
			// '[last()]' is '[position() = last()]' per XPath's numeric
			// predicate rule.
			return b.lastPredicate(ctx)
		case "position":
			// '[position()]' compares position() with itself: true.
			return condTrue, nil
		default:
			return sqlCond{}, fmt.Errorf("function %s() cannot be a boolean predicate in SQL translation", x.Name)
		}
	case *xpath.Path:
		return b.predPathExists(sel, x, ctx)
	case *xpath.Union:
		out := condFalse
		for _, p := range x.Paths {
			c, err := b.predPathExists(sel, p, ctx)
			if err != nil || c.isTrue {
				return c, err
			}
			out = out.or(c)
		}
		return out, nil
	case *xpath.Number:
		return b.positional(sqlast.OpEq, x.Value, ctx)
	case *xpath.Literal:
		if x.Value != "" {
			return condTrue, nil
		}
		return condFalse, nil
	}
	return sqlCond{}, fmt.Errorf("unsupported predicate %T", e)
}

// negate builds NOT(e), flipping EXISTS directly.
func negate(e sqlast.Expr) sqlast.Expr {
	if ex, ok := e.(*sqlast.Exists); ok {
		return &sqlast.Exists{Select: ex.Select, Negate: !ex.Negate}
	}
	return &sqlast.Not{X: e}
}

// --- comparisons ---

func (b *builder) translateComparison(x *xpath.Binary, ctx chainCtx) (sqlCond, error) {
	op := sqlOp(x.Op)
	lPath, lf, lIsPath := valuePath(x.L)
	rPath, rf, rIsPath := valuePath(x.R)
	switch {
	case lIsPath && rIsPath:
		if lf != nil || rf != nil {
			return sqlCond{}, fmt.Errorf("arithmetic on both sides of a join predicate is not supported")
		}
		return b.joinClause(op, lPath, rPath, ctx)
	case lIsPath:
		c, ok := b.operand(x.R)
		if !ok {
			return b.specialComparison(x, ctx)
		}
		return b.valueComparison(op, lPath, lf, c, ctx)
	case rIsPath:
		c, ok := b.operand(x.L)
		if !ok {
			return b.specialComparison(x, ctx)
		}
		return b.valueComparison(flipSQLOp(op), rPath, rf, c, ctx)
	default:
		return b.specialComparison(x, ctx)
	}
}

// operand is constExpr for the constant side of a value comparison,
// the one place a literal may have been lifted from (lift): a slot
// stays a parameter.
func (b *builder) operand(e xpath.Expr) (sqlast.Expr, bool) {
	if slot, ok := b.slots[e]; ok {
		return slotParam(slot, e), true
	}
	return constExpr(e)
}

// specialComparison handles position(), last(), count() and
// constant-only comparisons.
func (b *builder) specialComparison(x *xpath.Binary, ctx chainCtx) (sqlCond, error) {
	// position()/last()/number on both sides: expressed with sibling
	// count subqueries (position = preceding+1, last = total).
	if l, lok := positionTerm(x.L); lok {
		if r, rok := positionTerm(x.R); rok && !(l.kind == 'n' && r.kind == 'n') {
			le, err := b.positionTermExpr(l, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			re, err := b.positionTermExpr(r, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			return dyn(&sqlast.Binary{Op: sqlOp(x.Op), L: le, R: re}), nil
		}
	}
	// count(path) op number / number op count(path).
	if call, ok := x.L.(*xpath.Call); ok && call.Name == "count" {
		if n, ok := x.R.(*xpath.Number); ok {
			return b.countComparison(sqlOp(x.Op), call.Args[0], n.Value, ctx)
		}
	}
	if call, ok := x.R.(*xpath.Call); ok && call.Name == "count" {
		if n, ok := x.L.(*xpath.Number); ok {
			return b.countComparison(flipSQLOp(sqlOp(x.Op)), call.Args[0], n.Value, ctx)
		}
	}
	// Constant vs constant: fold.
	lc, lok := constValue(x.L)
	rc, rok := constValue(x.R)
	if lok && rok {
		if staticCompare(x.Op, lc, rc) {
			return condTrue, nil
		}
		return condFalse, nil
	}
	return sqlCond{}, fmt.Errorf("unsupported comparison %s", x)
}

// valuePath decomposes an operand into a path plus an optional
// arithmetic transform over the path's value (e.g. 'price * 2').
func valuePath(e xpath.Expr) (*xpath.Path, func(sqlast.Expr) sqlast.Expr, bool) {
	switch x := e.(type) {
	case *xpath.Path:
		return x, nil, true
	case *xpath.Binary:
		if !x.Op.Arithmetic() {
			return nil, nil, false
		}
		if p, f, ok := valuePath(x.L); ok {
			if c, cok := constExpr(x.R); cok {
				op := x.Op
				return p, compose(f, func(col sqlast.Expr) sqlast.Expr {
					return &sqlast.Binary{Op: sqlArith(op), L: col, R: c}
				}), true
			}
			return nil, nil, false
		}
		if p, f, ok := valuePath(x.R); ok {
			if c, cok := constExpr(x.L); cok {
				op := x.Op
				return p, compose(f, func(col sqlast.Expr) sqlast.Expr {
					return &sqlast.Binary{Op: sqlArith(op), L: c, R: col}
				}), true
			}
		}
	}
	return nil, nil, false
}

// valuePathShaped reports whether valuePath accepts e, without building
// the transform.
func valuePathShaped(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Path:
		return true
	case *xpath.Binary:
		if !x.Op.Arithmetic() {
			return false
		}
		if valuePathShaped(x.L) {
			_, ok := constValue(x.R)
			return ok
		}
		if valuePathShaped(x.R) {
			_, ok := constValue(x.L)
			return ok
		}
	}
	return false
}

func compose(f, g func(sqlast.Expr) sqlast.Expr) func(sqlast.Expr) sqlast.Expr {
	if f == nil {
		return g
	}
	return func(e sqlast.Expr) sqlast.Expr { return g(f(e)) }
}

// constExpr folds a constant XPath expression into a SQL literal.
func constExpr(e xpath.Expr) (sqlast.Expr, bool) {
	v, ok := constValue(e)
	if !ok {
		return nil, false
	}
	switch x := v.(type) {
	case string:
		return sqlast.Str(x), true
	case float64:
		return numLit(x), true
	}
	return nil, false
}

// constValue evaluates literals and constant arithmetic.
func constValue(e xpath.Expr) (interface{}, bool) {
	switch x := e.(type) {
	case *xpath.Literal:
		return x.Value, true
	case *xpath.Number:
		return x.Value, true
	case *xpath.Binary:
		if !x.Op.Arithmetic() {
			return nil, false
		}
		l, lok := constNum(x.L)
		r, rok := constNum(x.R)
		if !lok || !rok {
			return nil, false
		}
		switch x.Op {
		case xpath.OpAdd:
			return l + r, true
		case xpath.OpSub:
			return l - r, true
		case xpath.OpMul:
			return l * r, true
		case xpath.OpDiv:
			return l / r, true
		case xpath.OpMod:
			return math.Mod(l, r), true
		}
	}
	return nil, false
}

func constNum(e xpath.Expr) (float64, bool) {
	v, ok := constValue(e)
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

func staticCompare(op xpath.Op, a, b interface{}) bool {
	af, aIsNum := a.(float64)
	bf, bIsNum := b.(float64)
	if aIsNum && bIsNum {
		switch op {
		case xpath.OpEq:
			return af == bf
		case xpath.OpNe:
			return af != bf
		case xpath.OpLt:
			return af < bf
		case xpath.OpLe:
			return af <= bf
		case xpath.OpGt:
			return af > bf
		case xpath.OpGe:
			return af >= bf
		}
	}
	as, _ := a.(string)
	bs, _ := b.(string)
	switch op {
	case xpath.OpEq:
		return as == bs
	case xpath.OpNe:
		return as != bs
	}
	return false
}

func sqlOp(op xpath.Op) sqlast.BinOp {
	switch op {
	case xpath.OpEq:
		return sqlast.OpEq
	case xpath.OpNe:
		return sqlast.OpNe
	case xpath.OpLt:
		return sqlast.OpLt
	case xpath.OpLe:
		return sqlast.OpLe
	case xpath.OpGt:
		return sqlast.OpGt
	case xpath.OpGe:
		return sqlast.OpGe
	}
	panic("core: not a comparison operator")
}

func sqlArith(op xpath.Op) sqlast.BinOp {
	switch op {
	case xpath.OpAdd:
		return sqlast.OpAdd
	case xpath.OpSub:
		return sqlast.OpSub
	case xpath.OpMul:
		return sqlast.OpMul
	case xpath.OpDiv:
		return sqlast.OpDiv
	default:
		return sqlast.OpMod
	}
}

func flipSQLOp(op sqlast.BinOp) sqlast.BinOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	}
	return op
}

// --- predicate path machinery ---

// predChain is one place a predicate operand's value comes from: the
// end of one relation combination's subselect chain (with the
// terminal attribute/text() step if any), or — sel nil — the
// predicated element itself.
type predChain struct {
	sel      *sqlast.Select
	end      chainCtx
	terminal *xpath.Step
}

// predPathExists translates a bare path predicate (existence).
func (b *builder) predPathExists(sel *sqlast.Select, p *xpath.Path, ctx chainCtx) (sqlCond, error) {
	// Attribute / text() / self shortcuts on the predicated element.
	if s := selfStep(p); s != nil {
		if s.Axis == xpath.Attribute || s.Test == xpath.TextTest {
			return b.valueTest(ctx, s, nil), nil
		}
		if s.Axis == xpath.Self && s.Test == xpath.AnyKindTest {
			// '.' always selects the context node itself.
			return condTrue, nil
		}
	}
	// Backward simple path: Table 5-2 — pure path-id filtering on the
	// predicated relation, no structural join.
	if !p.Absolute && isBackwardSimple(p.Steps) {
		steps, _, err := normalizeSteps(p.Steps)
		if err != nil {
			return sqlCond{}, err
		}
		pattern, err := backwardRegex(steps, ctx.namePat, b.tr.opts.PatternTrace)
		if err != nil {
			return sqlCond{}, err
		}
		return b.pathFilterCond(sel, ctx.alias, ctx.node, pattern)
	}
	// General case: one EXISTS per relation combination, OR-ed
	// (Section 4.4: predicates never split the outer statement).
	chains, err := b.buildPredChains(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	out := condFalse
	for _, c := range chains {
		if b.applyTerminal(c.sel, c.end, c.terminal) {
			out = out.or(dyn(&sqlast.Exists{Select: c.sel}))
		}
	}
	return out, nil
}

// selfStep returns the step of a relative path of one predicate-free
// step — the only shape that can denote the predicated element itself
// or one of its values — and nil for every other path.
func selfStep(p *xpath.Path) *xpath.Step {
	if p.Absolute || len(p.Steps) != 1 || len(p.Steps[0].Predicates) > 0 {
		return nil
	}
	return p.Steps[0]
}

// isBackwardSimple reports whether all steps are backward vertical
// axes with no predicates (a backward simple path usable for Table
// 5-2 filtering).
func isBackwardSimple(steps []*xpath.Step) bool {
	for _, s := range steps {
		if !s.Axis.Backward() || len(s.Predicates) > 0 || s.Test == xpath.TextTest {
			return false
		}
	}
	return len(steps) > 0
}

// buildPredChains builds the subselect chains for a predicate path.
func (b *builder) buildPredChains(p *xpath.Path, ctx chainCtx) ([]predChain, error) {
	frags, terminal, err := splitPPFs(p.Steps)
	if err != nil {
		return nil, err
	}
	if len(frags) == 0 {
		return nil, fmt.Errorf("empty predicate path %q", p)
	}
	start := ctx
	var startSet []*schema.Node
	if p.Absolute {
		start = chainCtx{}
	} else {
		startSet = []*schema.Node{ctx.node}
	}
	combos, err := b.tr.enumerate(frags, startSet)
	if err != nil {
		return nil, err
	}
	var out []predChain
	for _, combo := range combos {
		sub := &sqlast.Select{Cols: []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}}}
		end, ok, err := b.buildChain(sub, frags, combo, start)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, predChain{sel: sub, end: end, terminal: terminal})
	}
	return out, nil
}

// operandChains lists where a compared path's value comes from: the
// predicated element itself for '.', 'text()' and '@attr', otherwise
// the path's subselect chains.
func (b *builder) operandChains(p *xpath.Path, ctx chainCtx) ([]predChain, error) {
	if s := selfStep(p); s != nil {
		switch {
		case s.Axis == xpath.Attribute:
			return []predChain{{end: ctx, terminal: s}}, nil
		case s.Axis == xpath.Child && s.Test == xpath.TextTest,
			s.Axis == xpath.Self && s.Test == xpath.AnyKindTest:
			return []predChain{{end: ctx}}, nil
		}
	}
	return b.buildPredChains(p, ctx)
}

// valueTest builds the condition that the value a path ends in — the
// attribute a terminal attribute step names, otherwise the text of
// the element at end — exists and satisfies cond (nil: merely
// exists). It is statically false where the mapping knows the element
// cannot hold the value.
func (b *builder) valueTest(end chainCtx, terminal *xpath.Step, cond func(sqlast.Expr) sqlCond) sqlCond {
	if terminal != nil && terminal.Axis == xpath.Attribute {
		return b.tr.m.attrTest(b, end.alias, end.node, terminal.Name, cond)
	}
	if !end.node.HasText {
		return condFalse
	}
	return testValue(sqlast.C(end.alias, shred.ColText), cond)
}

// testValue applies cond to a nullable value expression.
func testValue(v sqlast.Expr, cond func(sqlast.Expr) sqlCond) sqlCond {
	if cond == nil {
		return dyn(&sqlast.IsNull{X: v, Negate: true})
	}
	return cond(v)
}

// existsIn wraps a condition on a chain's value in the chain's EXISTS
// (a condition on the predicated element itself stands as it is).
func existsIn(sel *sqlast.Select, cond sqlCond) sqlCond {
	if sel == nil || cond.isFalse {
		return cond
	}
	sel.AddConjunct(cond.expr)
	return dyn(&sqlast.Exists{Select: sel})
}

// valueComparison translates 'path OP constant' (with an optional
// arithmetic transform on the path's value).
func (b *builder) valueComparison(op sqlast.BinOp, p *xpath.Path, f func(sqlast.Expr) sqlast.Expr, c sqlast.Expr, ctx chainCtx) (sqlCond, error) {
	chains, err := b.operandChains(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	compare := func(v sqlast.Expr) sqlCond {
		if f != nil {
			v = f(v)
		}
		return dyn(&sqlast.Binary{Op: op, L: v, R: c})
	}
	out := condFalse
	for _, ch := range chains {
		out = out.or(existsIn(ch.sel, b.valueTest(ch.end, ch.terminal, compare)))
	}
	return out, nil
}

// joinClause translates 'pathL OP pathR' (a predicate join clause):
// both paths' relations live in one EXISTS subselect with a theta
// join between their values.
func (b *builder) joinClause(op sqlast.BinOp, pl, pr *xpath.Path, ctx chainCtx) (sqlCond, error) {
	chainsL, err := b.operandChains(pl, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	out := condFalse
	for _, cl := range chainsL {
		// Each left chain merges with right chains of its own: their
		// aliases must be fresh per EXISTS.
		chainsR, err := b.operandChains(pr, ctx)
		if err != nil {
			return sqlCond{}, err
		}
		for _, cr := range chainsR {
			cond := b.valueTest(cl.end, cl.terminal, func(lv sqlast.Expr) sqlCond {
				return b.valueTest(cr.end, cr.terminal, func(rv sqlast.Expr) sqlCond {
					return dyn(&sqlast.Binary{Op: op, L: lv, R: rv})
				})
			})
			out = out.or(existsIn(mergeSelects(cl.sel, cr.sel), cond))
		}
	}
	return out, nil
}

// mergeSelects joins two chains' subselects into one (nil stands for
// the predicated element itself, which needs no subselect).
func mergeSelects(l, r *sqlast.Select) *sqlast.Select {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &sqlast.Select{
		Cols:  l.Cols,
		From:  append(append([]sqlast.TableRef(nil), l.From...), r.From...),
		Where: sqlast.And(l.Where, r.Where),
	}
}

// countComparison translates 'count(path) OP n' with a scalar COUNT
// subquery. Only single-combination paths are supported.
func (b *builder) countComparison(op sqlast.BinOp, arg xpath.Expr, n float64, ctx chainCtx) (sqlCond, error) {
	p, ok := arg.(*xpath.Path)
	if !ok {
		return sqlCond{}, fmt.Errorf("count() requires a path argument")
	}
	chains, err := b.buildPredChains(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	live := chains[:0]
	for _, ch := range chains {
		if b.applyTerminal(ch.sel, ch.end, ch.terminal) {
			live = append(live, ch)
		}
	}
	switch len(live) {
	case 0:
		if staticCompare(opToXPath(op), 0.0, n) {
			return condTrue, nil
		}
		return condFalse, nil
	case 1:
		sub := live[0].sel
		sub.Cols = []sqlast.SelectCol{{Expr: &sqlast.CountStar{}}}
		return dyn(&sqlast.Binary{Op: op,
			L: &sqlast.Subquery{Select: sub}, R: numLit(n)}), nil
	default:
		return sqlCond{}, fmt.Errorf("count() over a path with multiple candidate relations is not supported")
	}
}

// positionTerm classifies one side of a positional comparison:
// 'n' = number, 'p' = position(), 'l' = last().
type posTerm struct {
	kind byte
	num  float64
}

func positionTerm(e xpath.Expr) (posTerm, bool) {
	switch x := e.(type) {
	case *xpath.Number:
		return posTerm{kind: 'n', num: x.Value}, true
	case *xpath.Call:
		switch x.Name {
		case "position":
			return posTerm{kind: 'p'}, true
		case "last":
			return posTerm{kind: 'l'}, true
		}
	}
	return posTerm{}, false
}

// positionTermExpr renders a positional term as a SQL expression over
// counts of the siblings passing the same node test: position() is
// (preceding siblings)+1 and last() the total sibling count. Requires
// a child-axis, non-wildcard prominent step (see DESIGN.md).
func (b *builder) positionTermExpr(t posTerm, ctx chainCtx) (sqlast.Expr, error) {
	if t.kind == 'n' {
		return numLit(t.num), nil
	}
	step := ctx.lastStep
	if step == nil || step.Axis != xpath.Child || step.Test != xpath.NameTest || step.Name == "" {
		return nil, fmt.Errorf("positional predicates are only supported on child-axis name tests")
	}
	ref := b.tr.m.relation(b, ctx.node)
	alias := ref.Alias
	sub := &sqlast.Select{
		Cols: []sqlast.SelectCol{{Expr: &sqlast.CountStar{}}},
		From: []sqlast.TableRef{ref},
	}
	sub.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(ctx.alias, shred.ColPar)))
	sub.AddConjunct(b.tr.m.siblingTest(alias, step))
	if t.kind == 'p' {
		sub.AddConjunct(&sqlast.Binary{Op: sqlast.OpLt,
			L: sqlast.C(alias, shred.ColDewey), R: sqlast.C(ctx.alias, shred.ColDewey)})
		return &sqlast.Binary{Op: sqlast.OpAdd, L: &sqlast.Subquery{Select: sub}, R: sqlast.Int(1)}, nil
	}
	return &sqlast.Subquery{Select: sub}, nil
}

// positional translates '[n]' / '[position() OP n]'.
func (b *builder) positional(op sqlast.BinOp, n float64, ctx chainCtx) (sqlCond, error) {
	pos, err := b.positionTermExpr(posTerm{kind: 'p'}, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	return dyn(&sqlast.Binary{Op: op, L: pos, R: numLit(n)}), nil
}

// lastPredicate translates a bare '[last()]' ([position() = last()]).
func (b *builder) lastPredicate(ctx chainCtx) (sqlCond, error) {
	pos, err := b.positionTermExpr(posTerm{kind: 'p'}, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	total, err := b.positionTermExpr(posTerm{kind: 'l'}, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	return dyn(sqlast.Eq(pos, total)), nil
}

// numLit is the SQL literal of an XPath number: an integer where the
// value is integral.
func numLit(f float64) sqlast.Expr {
	if integral(f) {
		return sqlast.Int(int64(f))
	}
	return &sqlast.FloatLit{Value: f}
}

func integral(f float64) bool { return f == math.Trunc(f) && math.Abs(f) < 1e15 }

func opToXPath(op sqlast.BinOp) xpath.Op {
	switch op {
	case sqlast.OpEq:
		return xpath.OpEq
	case sqlast.OpNe:
		return xpath.OpNe
	case sqlast.OpLt:
		return xpath.OpLt
	case sqlast.OpLe:
		return xpath.OpLe
	case sqlast.OpGt:
		return xpath.OpGt
	default:
		return xpath.OpGe
	}
}
