package core

import (
	"fmt"

	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// EdgeTranslator is the schema-oblivious variant of PPF-based
// processing used in the Section 5.1 comparison: the same PPF
// splitting, path-regex filtering and Dewey structural joins, applied
// to the Edge-like mapping (one central element relation, attributes
// in a separate relation, no schema marking — every path filter is
// dynamic).
type EdgeTranslator struct {
	opts Options
}

// NewEdge returns an Edge-mapping PPF translator.
func NewEdge(opts *Options) *EdgeTranslator {
	o := DefaultOptions()
	o.PathFilterOmission = false // no schema knowledge
	if opts != nil {
		o.FKChildParent = opts.FKChildParent
		o.PatternTrace = opts.PatternTrace
	}
	return &EdgeTranslator{opts: o}
}

// Translate parses and translates an XPath query against the Edge
// mapping.
func (t *EdgeTranslator) Translate(query string) (*Translation, error) {
	e, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return t.TranslateExpr(e)
}

// TranslateExpr translates a parsed expression.
func (t *EdgeTranslator) TranslateExpr(e xpath.Expr) (*Translation, error) {
	var paths []*xpath.Path
	switch x := e.(type) {
	case *xpath.Path:
		paths = []*xpath.Path{x}
	case *xpath.Union:
		paths = x.Paths
	default:
		return nil, fmt.Errorf("core: expression %T is not a location path", e)
	}
	var selects []*sqlast.Select
	for _, p := range paths {
		sel, err := t.translatePath(p)
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", p, err)
		}
		if sel != nil {
			selects = append(selects, sel)
		}
	}
	return finishTranslation(selects)
}

// edgeBuilder accumulates one SELECT over the Edge mapping.
type edgeBuilder struct {
	tr    *EdgeTranslator
	nextE int
	nextA int
	// joined memoizes paths joins per SELECT scope (a join added to
	// one subquery's FROM is invisible to its siblings); aliases are
	// deduplicated statement-wide by nextP.
	joined map[*sqlast.Select]map[string]string
	nextP  map[string]int
}

// edgeCtx is the chain state: previous prominent alias and name
// pattern plus the forward run.
type edgeCtx struct {
	alias    string
	namePat  string
	lastStep *xpath.Step
	run      []*xpath.Step
	anchored bool
	runBase  string
}

func (b *edgeBuilder) newEdgeAlias() string {
	b.nextE++
	return fmt.Sprintf("e%d", b.nextE)
}

func (b *edgeBuilder) newAttrAlias() string {
	b.nextA++
	return fmt.Sprintf("at%d", b.nextA)
}

func (t *EdgeTranslator) translatePath(p *xpath.Path) (*sqlast.Select, error) {
	if !p.Absolute {
		return nil, fmt.Errorf("top-level paths must be absolute")
	}
	if len(p.Steps) == 0 {
		p = &xpath.Path{Absolute: true, Steps: []*xpath.Step{{Axis: xpath.Child, Test: xpath.NameTest}}}
	}
	frags, terminal, err := splitPPFs(p.Steps)
	if err != nil {
		return nil, err
	}
	if len(frags) == 0 || frags[0].kind != ppfForward {
		return nil, fmt.Errorf("an absolute path must begin with a forward step")
	}
	b := &edgeBuilder{tr: t, joined: map[*sqlast.Select]map[string]string{}, nextP: map[string]int{}}
	sel := &sqlast.Select{Distinct: true}
	end, err := b.buildChain(sel, frags, edgeCtx{})
	if err != nil {
		return nil, err
	}
	if cond, err := b.terminalCond(end, terminal); err != nil {
		return nil, err
	} else if cond != nil {
		sel.AddConjunct(cond)
	}
	sel.Cols = []sqlast.SelectCol{
		{Expr: sqlast.C(end.alias, shred.ColID), Alias: "id"},
		{Expr: sqlast.C(end.alias, shred.ColDewey), Alias: "dewey_pos"},
	}
	return sel, nil
}

// terminalCond restricts for a terminal @attr or text() step.
func (b *edgeBuilder) terminalCond(end edgeCtx, terminal *xpath.Step) (sqlast.Expr, error) {
	if terminal == nil {
		return nil, nil
	}
	if terminal.Axis == xpath.Attribute {
		return b.attrExists(end.alias, terminal.Name, 0, nil), nil
	}
	return &sqlast.IsNull{X: sqlast.C(end.alias, shred.ColText), Negate: true}, nil
}

// attrExists builds EXISTS over the attribute relation; op/val add a
// value restriction when val is non-nil.
func (b *edgeBuilder) attrExists(owner, name string, op sqlast.BinOp, val sqlast.Expr) sqlast.Expr {
	a := b.newAttrAlias()
	sub := &sqlast.Select{
		Cols: []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}},
		From: []sqlast.TableRef{{Table: shred.AttrTable, Alias: a}},
	}
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColOwner), sqlast.C(owner, shred.ColID)))
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColAttrName), sqlast.Str(name)))
	if val != nil {
		sub.AddConjunct(&sqlast.Binary{Op: op, L: sqlast.C(a, shred.ColValue), R: val})
	}
	return &sqlast.Exists{Select: sub}
}

// buildChain implements Algorithm 1 over the Edge mapping.
func (b *edgeBuilder) buildChain(sel *sqlast.Select, frags []*ppf, start edgeCtx) (edgeCtx, error) {
	cur := start
	for i, f := range frags {
		alias := b.newEdgeAlias()
		sel.From = append(sel.From, sqlast.TableRef{Table: shred.EdgeTable, Alias: alias})

		switch f.kind {
		case ppfForward:
			first := cur.alias == "" && i == 0 && start.alias == ""
			switch {
			case first && len(cur.run) == 0:
				cur.run = append([]*xpath.Step(nil), f.steps...)
				cur.anchored = true
				cur.runBase = ""
			case len(cur.run) > 0 && (i == 0 || frags[i-1].kind == ppfForward):
				cur.run = append(append([]*xpath.Step(nil), cur.run...), f.steps...)
			default:
				cur.run = append([]*xpath.Step(nil), f.steps...)
				cur.anchored = false
				cur.runBase = cur.namePat
			}
			pattern, err := forwardRegex(cur.run, cur.anchored, cur.runBase, b.tr.opts.PatternTrace)
			if err != nil {
				return cur, err
			}
			b.addPathFilter(sel, alias, pattern)
			if cur.alias != "" {
				if err := b.structuralJoin(sel, cur, alias, f); err != nil {
					return cur, err
				}
			}
		case ppfBackward:
			if cur.alias == "" {
				return cur, fmt.Errorf("a backward fragment needs a preceding context")
			}
			pattern, err := backwardRegex(f.steps, cur.namePat, b.tr.opts.PatternTrace)
			if err != nil {
				return cur, err
			}
			b.addPathFilter(sel, cur.alias, pattern)
			// The prominent element's own name test.
			b.nameFilter(sel, alias, f.prominent())
			if err := b.structuralJoin(sel, cur, alias, f); err != nil {
				return cur, err
			}
			cur.run, cur.anchored, cur.runBase = nil, false, ""
		case ppfHorizontal:
			if cur.alias == "" {
				return cur, fmt.Errorf("a horizontal fragment needs a preceding context")
			}
			// Algorithm 1 lines 6-7: filter the prominent's path to end
			// with the step's name test.
			b.nameFilter(sel, alias, f.steps[0])
			b.horizontalJoin(sel, cur.alias, alias, f.steps[0].Axis)
			cur.run, cur.anchored, cur.runBase = nil, false, ""
		}

		cur.alias = alias
		cur.namePat = namePat(f.prominent())
		cur.lastStep = f.prominent()

		if err := checkPredicateOrder(f.prominent()); err != nil {
			return cur, err
		}
		for _, pred := range f.prominent().Predicates {
			cond, err := b.translatePredicate(sel, pred, cur)
			if err != nil {
				return cur, err
			}
			if cond.isFalse {
				sel.AddConjunct(sqlast.Eq(sqlast.Int(1), sqlast.Int(0)))
			} else if !cond.isTrue {
				sel.AddConjunct(cond.expr)
			}
		}
	}
	return cur, nil
}

// addPathFilter joins alias with paths and filters by pattern (no
// omission: the Edge mapping has no schema marking). Trivial patterns
// that match everything are skipped.
func (b *edgeBuilder) addPathFilter(sel *sqlast.Select, alias, pattern string) {
	if pattern == "^.*$" || pattern == "^.*[^/]+$" || pattern == "^.*/[^/]+$" {
		return
	}
	pa := b.joinWithPaths(sel, alias)
	sel.AddConjunct(sqlast.RegexpLike(sqlast.C(pa, "path"), pattern))
}

// nameFilter restricts an alias to a node-test by path suffix, per
// Algorithm 1 lines 6-7 (skipped for wildcards).
func (b *edgeBuilder) nameFilter(sel *sqlast.Select, alias string, step *xpath.Step) {
	if step.Wildcard() || step.Test != xpath.NameTest {
		return
	}
	b.addPathFilter(sel, alias, "^.*/"+regexQuote(step.Name)+"$")
}

func (b *edgeBuilder) joinWithPaths(sel *sqlast.Select, alias string) string {
	if pa, ok := b.joined[sel][alias]; ok {
		return pa
	}
	// Unique statement-wide: a subquery re-joining an outer alias's
	// paths row must not shadow the enclosing scope's join.
	pa := alias + "_paths"
	b.nextP[pa]++
	if n := b.nextP[pa]; n > 1 {
		pa = fmt.Sprintf("%s_%d", pa, n)
	}
	sel.From = append(sel.From, sqlast.TableRef{Table: shred.PathsTable, Alias: pa})
	sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPath), sqlast.C(pa, shred.ColID)))
	if b.joined[sel] == nil {
		b.joined[sel] = map[string]string{}
	}
	b.joined[sel][alias] = pa
	return pa
}

func (b *edgeBuilder) structuralJoin(sel *sqlast.Select, prev edgeCtx, alias string, f *ppf) error {
	prevAlias := prev.alias
	if b.tr.opts.FKChildParent && len(f.steps) == 1 {
		switch f.steps[0].Axis {
		case xpath.Child:
			sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(prevAlias, shred.ColID)))
			return nil
		case xpath.Parent:
			sel.AddConjunct(sqlast.Eq(sqlast.C(prevAlias, shred.ColPar), sqlast.C(alias, shred.ColID)))
			return nil
		}
	}
	switch f.kind {
	case ppfForward:
		sel.AddConjunct(&sqlast.Between{
			X:  sqlast.C(alias, shred.ColDewey),
			Lo: sqlast.C(prevAlias, shred.ColDewey),
			Hi: deweyLimit(prevAlias),
		})
		if !forwardInclusive(f) {
			sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpNe,
				L: sqlast.C(alias, shred.ColID), R: sqlast.C(prevAlias, shred.ColID)})
		}
		// Without a schema there is no recursion knowledge: always pin
		// the fragment boundary (see the schema-aware structuralJoin).
		if allChild(f) {
			sel.AddConjunct(levelPin(alias, prevAlias, len(f.steps)))
		} else {
			pattern, err := forwardSuffixRegex(f.steps, prev.namePat, b.tr.opts.PatternTrace)
			if err != nil {
				return err
			}
			sel.AddConjunct(b.suffixCheck(sel, alias, prevAlias, pattern))
		}
	case ppfBackward:
		sel.AddConjunct(&sqlast.Between{
			X:  sqlast.C(prevAlias, shred.ColDewey),
			Lo: sqlast.C(alias, shred.ColDewey),
			Hi: deweyLimit(alias),
		})
		if !backwardInclusive(f) {
			sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpNe,
				L: sqlast.C(alias, shred.ColID), R: sqlast.C(prevAlias, shred.ColID)})
		}
		if allParent(f) {
			sel.AddConjunct(levelPin(prevAlias, alias, len(f.steps)))
		} else {
			pattern, err := backwardSuffixRegex(f.steps, prev.namePat, b.tr.opts.PatternTrace)
			if err != nil {
				return err
			}
			sel.AddConjunct(b.suffixCheck(sel, prevAlias, alias, pattern))
		}
	}
	return nil
}

// suffixCheck mirrors builder.suffixCheck for the Edge mapping.
func (b *edgeBuilder) suffixCheck(sel *sqlast.Select, deepAlias, shallowAlias, pattern string) sqlast.Expr {
	deepPaths := b.joinWithPaths(sel, deepAlias)
	shallowPaths := b.joinWithPaths(sel, shallowAlias)
	return sqlast.RegexpLike(
		&sqlast.Func{Name: "SUBSTR", Args: []sqlast.Expr{
			sqlast.C(deepPaths, "path"),
			&sqlast.Binary{Op: sqlast.OpAdd,
				L: &sqlast.Func{Name: "LENGTH", Args: []sqlast.Expr{sqlast.C(shallowPaths, "path")}},
				R: sqlast.Int(1)},
		}},
		pattern)
}

func (b *edgeBuilder) horizontalJoin(sel *sqlast.Select, prevAlias, alias string, axis xpath.Axis) {
	switch axis {
	case xpath.Following:
		sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpGt,
			L: sqlast.C(alias, shred.ColDewey), R: deweyLimit(prevAlias)})
	case xpath.Preceding:
		sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpGt,
			L: sqlast.C(prevAlias, shred.ColDewey), R: deweyLimit(alias)})
	case xpath.FollowingSibling:
		sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpGt,
			L: sqlast.C(alias, shred.ColDewey), R: sqlast.C(prevAlias, shred.ColDewey)})
		sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(prevAlias, shred.ColPar)))
	case xpath.PrecedingSibling:
		sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpGt,
			L: sqlast.C(prevAlias, shred.ColDewey), R: sqlast.C(alias, shred.ColDewey)})
		sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(prevAlias, shred.ColPar)))
	}
}

// --- predicates over the Edge mapping ---

func (b *edgeBuilder) translatePredicate(sel *sqlast.Select, e xpath.Expr, ctx edgeCtx) (sqlCond, error) {
	switch x := e.(type) {
	case *xpath.Binary:
		switch {
		case x.Op == xpath.OpAnd, x.Op == xpath.OpOr:
			l, err := b.translatePredicate(sel, x.L, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			r, err := b.translatePredicate(sel, x.R, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			if x.Op == xpath.OpAnd {
				return dyn(sqlast.And(l.asExpr(), r.asExpr())), nil
			}
			return dyn(sqlast.Or(l.asExpr(), r.asExpr())), nil
		case x.Op.Comparison():
			return b.translateComparison(sel, x, ctx)
		default:
			return sqlCond{}, fmt.Errorf("a bare arithmetic predicate is positional and not supported")
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
			}
			return dyn(negate(inner.expr)), nil
		case "last":
			return b.lastPredicate(ctx)
		case "position":
			return condTrue, nil
		}
		return sqlCond{}, fmt.Errorf("function %s() cannot be a boolean predicate", x.Name)
	case *xpath.Path:
		return b.predPathExists(sel, x, ctx)
	case *xpath.Union:
		var parts []sqlast.Expr
		for _, p := range x.Paths {
			c, err := b.predPathExists(sel, p, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			parts = append(parts, c.asExpr())
		}
		return dyn(sqlast.Or(parts...)), nil
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

func (b *edgeBuilder) translateComparison(sel *sqlast.Select, x *xpath.Binary, ctx edgeCtx) (sqlCond, error) {
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
		c, ok := constExpr(x.R)
		if !ok {
			return b.specialComparison(x, ctx)
		}
		return b.valueComparison(op, lPath, lf, c, ctx)
	case rIsPath:
		c, ok := constExpr(x.L)
		if !ok {
			return b.specialComparison(x, ctx)
		}
		return b.valueComparison(flipSQLOp(op), rPath, rf, c, ctx)
	default:
		return b.specialComparison(x, ctx)
	}
}

func (b *edgeBuilder) specialComparison(x *xpath.Binary, ctx edgeCtx) (sqlCond, error) {
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

// predPathExists translates a bare path predicate.
func (b *edgeBuilder) predPathExists(sel *sqlast.Select, p *xpath.Path, ctx edgeCtx) (sqlCond, error) {
	if !p.Absolute && len(p.Steps) == 1 {
		s := p.Steps[0]
		if s.Axis == xpath.Attribute && len(s.Predicates) == 0 {
			return dyn(b.attrExists(ctx.alias, s.Name, 0, nil)), nil
		}
		if s.Test == xpath.TextTest && len(s.Predicates) == 0 {
			return dyn(&sqlast.IsNull{X: sqlast.C(ctx.alias, shred.ColText), Negate: true}), nil
		}
		if s.Axis == xpath.Self && s.Test == xpath.AnyKindTest && len(s.Predicates) == 0 {
			return condTrue, nil
		}
	}
	// Backward simple path: Table 5-2 path filtering.
	if !p.Absolute && isBackwardSimple(p.Steps) {
		steps, _, err := normalizeSteps(p.Steps)
		if err != nil {
			return sqlCond{}, err
		}
		pattern, err := backwardRegex(steps, ctx.namePat, b.tr.opts.PatternTrace)
		if err != nil {
			return sqlCond{}, err
		}
		pa := b.joinWithPaths(sel, ctx.alias)
		return dyn(sqlast.RegexpLike(sqlast.C(pa, "path"), pattern)), nil
	}
	ch, err := b.buildPredChain(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	if cond, err := b.terminalCondIn(ch); err != nil {
		return sqlCond{}, err
	} else if cond != nil {
		ch.sel.AddConjunct(cond)
	}
	return dyn(&sqlast.Exists{Select: ch.sel}), nil
}

// edgeChain is a predicate path subselect under construction.
type edgeChain struct {
	sel      *sqlast.Select
	end      edgeCtx
	terminal *xpath.Step
}

func (b *edgeBuilder) terminalCondIn(ch edgeChain) (sqlast.Expr, error) {
	if ch.terminal == nil {
		return nil, nil
	}
	if ch.terminal.Axis == xpath.Attribute {
		return b.attrExists(ch.end.alias, ch.terminal.Name, 0, nil), nil
	}
	return &sqlast.IsNull{X: sqlast.C(ch.end.alias, shred.ColText), Negate: true}, nil
}

func (b *edgeBuilder) buildPredChain(p *xpath.Path, ctx edgeCtx) (edgeChain, error) {
	frags, terminal, err := splitPPFs(p.Steps)
	if err != nil {
		return edgeChain{}, err
	}
	if len(frags) == 0 {
		return edgeChain{}, fmt.Errorf("empty predicate path %q", p)
	}
	start := ctx
	if p.Absolute {
		start = edgeCtx{}
	}
	sub := &sqlast.Select{Cols: []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}}}
	end, err := b.buildChain(sub, frags, start)
	if err != nil {
		return edgeChain{}, err
	}
	return edgeChain{sel: sub, end: end, terminal: terminal}, nil
}

func (b *edgeBuilder) valueComparison(op sqlast.BinOp, p *xpath.Path, f func(sqlast.Expr) sqlast.Expr, c sqlast.Expr, ctx edgeCtx) (sqlCond, error) {
	if cond, ok, err := b.selfValue(op, p, f, c, ctx); err != nil || ok {
		return cond, err
	}
	ch, err := b.buildPredChain(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	if ch.terminal != nil && ch.terminal.Axis == xpath.Attribute {
		ch.sel.AddConjunct(b.attrCompare(ch.end.alias, ch.terminal.Name, op, c, f))
	} else {
		ch.sel.AddConjunct(&sqlast.Binary{Op: op, L: applyf(f, sqlast.C(ch.end.alias, shred.ColText)), R: c})
	}
	return dyn(&sqlast.Exists{Select: ch.sel}), nil
}

// attrCompare embeds a value-restricted attribute EXISTS.
func (b *edgeBuilder) attrCompare(owner, name string, op sqlast.BinOp, val sqlast.Expr, f func(sqlast.Expr) sqlast.Expr) sqlast.Expr {
	a := b.newAttrAlias()
	sub := &sqlast.Select{
		Cols: []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}},
		From: []sqlast.TableRef{{Table: shred.AttrTable, Alias: a}},
	}
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColOwner), sqlast.C(owner, shred.ColID)))
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColAttrName), sqlast.Str(name)))
	sub.AddConjunct(&sqlast.Binary{Op: op, L: applyf(f, sqlast.C(a, shred.ColValue)), R: val})
	return &sqlast.Exists{Select: sub}
}

// isSelfish reports whether a predicate path denotes a value of the
// predicated element itself ('.', 'text()', '@attr').
func isSelfish(p *xpath.Path) bool {
	if p.Absolute || len(p.Steps) != 1 {
		return false
	}
	s := p.Steps[0]
	if len(s.Predicates) > 0 {
		return false
	}
	return s.Axis == xpath.Attribute ||
		(s.Axis == xpath.Child && s.Test == xpath.TextTest) ||
		(s.Axis == xpath.Self && s.Test == xpath.AnyKindTest)
}

// selfExpr returns the SQL expression for a selfish path's value. For
// attributes it returns a scalar subquery over the attr relation.
func (b *edgeBuilder) selfExpr(p *xpath.Path, ctx edgeCtx) (sqlast.Expr, error) {
	s := p.Steps[0]
	if s.Axis == xpath.Attribute {
		a := b.newAttrAlias()
		sub := &sqlast.Select{
			Cols: []sqlast.SelectCol{{Expr: sqlast.C(a, shred.ColValue)}},
			From: []sqlast.TableRef{{Table: shred.AttrTable, Alias: a}},
		}
		sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColOwner), sqlast.C(ctx.alias, shred.ColID)))
		sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColAttrName), sqlast.Str(s.Name)))
		return &sqlast.Subquery{Select: sub}, nil
	}
	return sqlast.C(ctx.alias, shred.ColText), nil
}

// selfValue handles '.', 'text()' and '@attr' comparisons against the
// predicated element itself.
func (b *edgeBuilder) selfValue(op sqlast.BinOp, p *xpath.Path, f func(sqlast.Expr) sqlast.Expr, c sqlast.Expr, ctx edgeCtx) (sqlCond, bool, error) {
	if p.Absolute || len(p.Steps) != 1 {
		return sqlCond{}, false, nil
	}
	s := p.Steps[0]
	switch {
	case s.Axis == xpath.Attribute && len(s.Predicates) == 0:
		return dyn(b.attrCompare(ctx.alias, s.Name, op, c, f)), true, nil
	case s.Axis == xpath.Child && s.Test == xpath.TextTest && len(s.Predicates) == 0,
		s.Axis == xpath.Self && s.Test == xpath.AnyKindTest && len(s.Predicates) == 0:
		return dyn(&sqlast.Binary{Op: op, L: applyf(f, sqlast.C(ctx.alias, shred.ColText)), R: c}), true, nil
	}
	return sqlCond{}, false, nil
}

func (b *edgeBuilder) joinClause(op sqlast.BinOp, pl, pr *xpath.Path, ctx edgeCtx) (sqlCond, error) {
	mkCol := func(ch edgeChain) (sqlast.Expr, error) {
		if ch.terminal != nil && ch.terminal.Axis == xpath.Attribute {
			return nil, fmt.Errorf("attribute terminals in join predicates are not supported on the Edge mapping")
		}
		return sqlast.C(ch.end.alias, shred.ColText), nil
	}
	// '.', 'text()' or '@attr' on either side compares the predicated
	// element's own value against the other path.
	if isSelfish(pl) || isSelfish(pr) {
		if isSelfish(pl) && isSelfish(pr) {
			lv, err := b.selfExpr(pl, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			rv, err := b.selfExpr(pr, ctx)
			if err != nil {
				return sqlCond{}, err
			}
			return dyn(&sqlast.Binary{Op: op, L: lv, R: rv}), nil
		}
		selfPath, otherPath, useOp := pl, pr, op
		if isSelfish(pr) {
			selfPath, otherPath, useOp = pr, pl, flipSQLOp(op)
		}
		col, err := b.selfExpr(selfPath, ctx)
		if err != nil {
			return sqlCond{}, err
		}
		ch, err := b.buildPredChain(otherPath, ctx)
		if err != nil {
			return sqlCond{}, err
		}
		rcol, err := mkCol(ch)
		if err != nil {
			return sqlCond{}, err
		}
		ch.sel.AddConjunct(&sqlast.Binary{Op: useOp, L: col, R: rcol})
		return dyn(&sqlast.Exists{Select: ch.sel}), nil
	}
	chL, err := b.buildPredChain(pl, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	colL, err := mkCol(chL)
	if err != nil {
		return sqlCond{}, err
	}
	chR, err := b.buildPredChain(pr, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	colR, err := mkCol(chR)
	if err != nil {
		return sqlCond{}, err
	}
	merged := &sqlast.Select{
		Cols:  chL.sel.Cols,
		From:  append(append([]sqlast.TableRef(nil), chL.sel.From...), chR.sel.From...),
		Where: sqlast.And(chL.sel.Where, chR.sel.Where),
	}
	merged.AddConjunct(&sqlast.Binary{Op: op, L: colL, R: colR})
	return dyn(&sqlast.Exists{Select: merged}), nil
}

func (b *edgeBuilder) countComparison(op sqlast.BinOp, arg xpath.Expr, n float64, ctx edgeCtx) (sqlCond, error) {
	p, ok := arg.(*xpath.Path)
	if !ok {
		return sqlCond{}, fmt.Errorf("count() requires a path argument")
	}
	ch, err := b.buildPredChain(p, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	if cond, err := b.terminalCondIn(ch); err != nil {
		return sqlCond{}, err
	} else if cond != nil {
		ch.sel.AddConjunct(cond)
	}
	ch.sel.Cols = []sqlast.SelectCol{{Expr: &sqlast.CountStar{}}}
	return dyn(&sqlast.Binary{Op: op, L: &sqlast.Subquery{Select: ch.sel}, R: numLit(n)}), nil
}

// positionTermExpr mirrors builder.positionTermExpr over the Edge
// mapping (same-name siblings via the name column).
func (b *edgeBuilder) positionTermExpr(t posTerm, ctx edgeCtx) (sqlast.Expr, error) {
	if t.kind == 'n' {
		return numLit(t.num), nil
	}
	step := ctx.lastStep
	if step == nil || step.Axis != xpath.Child || step.Test != xpath.NameTest || step.Name == "" {
		return nil, fmt.Errorf("positional predicates are only supported on child-axis name tests")
	}
	alias := b.newEdgeAlias()
	sub := &sqlast.Select{
		Cols: []sqlast.SelectCol{{Expr: &sqlast.CountStar{}}},
		From: []sqlast.TableRef{{Table: shred.EdgeTable, Alias: alias}},
	}
	sub.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(ctx.alias, shred.ColPar)))
	sub.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColName), sqlast.Str(step.Name)))
	if t.kind == 'p' {
		sub.AddConjunct(&sqlast.Binary{Op: sqlast.OpLt,
			L: sqlast.C(alias, shred.ColDewey), R: sqlast.C(ctx.alias, shred.ColDewey)})
		return &sqlast.Binary{Op: sqlast.OpAdd, L: &sqlast.Subquery{Select: sub}, R: sqlast.Int(1)}, nil
	}
	return &sqlast.Subquery{Select: sub}, nil
}

func (b *edgeBuilder) positional(op sqlast.BinOp, n float64, ctx edgeCtx) (sqlCond, error) {
	pos, err := b.positionTermExpr(posTerm{kind: 'p'}, ctx)
	if err != nil {
		return sqlCond{}, err
	}
	return dyn(&sqlast.Binary{Op: op, L: pos, R: numLit(n)}), nil
}

// lastPredicate translates a bare '[last()]'.
func (b *edgeBuilder) lastPredicate(ctx edgeCtx) (sqlCond, error) {
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
