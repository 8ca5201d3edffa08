package core

import (
	"fmt"

	"repro/internal/pathre"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// Options tune the translation; the zero value disables the paper's
// optimizations, New applies the defaults (everything on).
type Options struct {
	// PathFilterOmission enables the Section 4.5 optimization: U-P
	// relations never join the paths relation; F-P relations join only
	// when some of their enumerated root paths fail the regex.
	PathFilterOmission bool
	// FKChildParent uses foreign-key equijoins for single-step child
	// and parent PPFs instead of Dewey comparisons (Section 4.2).
	FKChildParent bool
	// PatternTrace, when non-nil, observes every Table 1 regex the
	// translator constructs (transcheck's corpus sweep).
	PatternTrace func(PatternTrace)
	// OmissionTrace, when non-nil, observes every Section 4.5
	// path-filter decision (plancheck's omission audit).
	OmissionTrace func(OmissionTrace)
	// maxCombos caps SQL splitting enumeration.
	maxCombos int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{PathFilterOmission: true, FKChildParent: true, maxCombos: 256}
}

// Translation is the result of translating one XPath expression.
type Translation struct {
	Stmt    sqlast.Statement
	SQL     string
	Selects int // UNION branches emitted (SQL-splitting metric)
	Joins   int // total FROM entries across all selects and subselects
}

// Translator translates XPath to SQL with the PPF technique. The
// relational mapping it targets — package shred's schema-aware mapping
// (New) or the schema-oblivious Edge-like one (NewEdge) — is data to
// the one Algorithm 1 below, reached only through m. It keeps the
// translation of every query shape it has seen (shape.go), so the trace
// hooks in opts observe a shape's translation once, not every text's. A
// Translator is safe for concurrent use.
type Translator struct {
	m      mapping
	opts   Options
	shapes shapeTable
}

// New returns a schema-aware PPF translator with the given options
// (nil means DefaultOptions).
func New(s *schema.Schema, opts *Options) *Translator {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
		if o.maxCombos == 0 {
			o.maxCombos = 256
		}
	}
	return &Translator{m: schemaMapping{s}, opts: o}
}

// Translate parses and translates an XPath query: the query's shape
// (Prepare) with the text's own literals bound back into it, so the
// statement reads as if translated from the text alone.
func (t *Translator) Translate(query string) (*Translation, error) {
	sh, args, err := t.Prepare(query)
	if err != nil {
		return nil, err
	}
	return sh.Bind(args), nil
}

// TranslateExpr translates a parsed XPath expression.
func (t *Translator) TranslateExpr(e xpath.Expr) (*Translation, error) {
	return t.translate(e, nil)
}

// translate translates a parsed expression, leaving a sqlast.Param for
// each literal in slots (lift; nil: none) where the literal's SQL
// constant would stand.
func (t *Translator) translate(e xpath.Expr, slots map[xpath.Expr]int) (*Translation, error) {
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
		sels, err := t.translatePath(p, slots)
		if err != nil {
			return nil, fmt.Errorf("core: %q: %w", p, err)
		}
		selects = append(selects, sels...)
	}
	return finishTranslation(selects)
}

// finishTranslation assembles the selects into the final statement
// with DISTINCT projection and document-order ORDER BY.
func finishTranslation(selects []*sqlast.Select) (*Translation, error) {
	orderBy := []sqlast.OrderKey{{Expr: sqlast.C("", "dewey_pos")}}
	var stmt sqlast.Statement
	switch len(selects) {
	case 0:
		// Statically empty: a select that returns nothing.
		empty := &sqlast.Select{
			Cols: []sqlast.SelectCol{
				{Expr: sqlast.Int(0), Alias: "id"},
				{Expr: &sqlast.NullLit{}, Alias: "dewey_pos"},
			},
			From:  []sqlast.TableRef{{Table: shred.PathsTable}},
			Where: sqlast.Eq(sqlast.Int(1), sqlast.Int(0)),
		}
		stmt = empty
	case 1:
		selects[0].OrderBy = []sqlast.OrderKey{{Expr: orderKeyFor(selects[0])}}
		stmt = selects[0]
	default:
		stmt = &sqlast.Union{Selects: selects, OrderBy: orderBy}
	}
	tr := &Translation{Stmt: stmt, SQL: sqlast.Render(stmt), Selects: len(selects)}
	tr.Joins = countFrom(stmt)
	return tr, nil
}

func orderKeyFor(sel *sqlast.Select) sqlast.Expr {
	// Order by the projected dewey_pos expression.
	for _, c := range sel.Cols {
		if c.Alias == "dewey_pos" {
			return c.Expr
		}
	}
	return sqlast.C("", "dewey_pos")
}

func countFrom(st sqlast.Statement) int {
	n := 0
	var cs func(s *sqlast.Select)
	var ce func(e sqlast.Expr)
	ce = func(e sqlast.Expr) {
		switch x := e.(type) {
		case *sqlast.Binary:
			ce(x.L)
			ce(x.R)
		case *sqlast.Not:
			ce(x.X)
		case *sqlast.Exists:
			cs(x.Select)
		case *sqlast.Subquery:
			cs(x.Select)
		case *sqlast.Between:
			ce(x.X)
			ce(x.Lo)
			ce(x.Hi)
		case *sqlast.Func:
			for _, a := range x.Args {
				ce(a)
			}
		}
	}
	cs = func(s *sqlast.Select) {
		n += len(s.From)
		if s.Where != nil {
			ce(s.Where)
		}
	}
	switch s := st.(type) {
	case *sqlast.Select:
		cs(s)
	case *sqlast.Union:
		for _, sel := range s.Selects {
			cs(sel)
		}
	}
	return n
}

// chainCtx carries the translation state at a fragment boundary: the
// previous prominent relation's alias, schema node and name pattern,
// plus the active forward run for regex construction.
type chainCtx struct {
	alias    string
	node     *schema.Node
	namePat  string
	lastStep *xpath.Step
	run      []*xpath.Step
	anchored bool
	runBase  string
}

// builder accumulates one SELECT (including its subselects).
type builder struct {
	tr      *Translator
	aliases map[string]int
	// joined memoizes paths joins per SELECT scope: a join added to
	// one subquery's FROM is invisible to its siblings, so an alias
	// may need a (1:1, paths.id is a key) re-join in each scope that
	// inspects its path.
	joined map[*sqlast.Select]map[string]string
	// slots are the literals that stay parameter slots (lift).
	slots map[xpath.Expr]int
}

func (t *Translator) newBuilder(slots map[xpath.Expr]int) *builder {
	return &builder{tr: t, aliases: map[string]int{}, joined: map[*sqlast.Select]map[string]string{}, slots: slots}
}

func (b *builder) newAlias(rel string) string {
	b.aliases[rel]++
	if b.aliases[rel] == 1 {
		return rel
	}
	return fmt.Sprintf("%s_%d", rel, b.aliases[rel])
}

// seqAlias numbers every alias of a shared relation: prefix1, prefix2.
func (b *builder) seqAlias(prefix string) string {
	b.aliases[prefix]++
	return fmt.Sprintf("%s%d", prefix, b.aliases[prefix])
}

// translatePath translates one absolute backbone path into one or
// more SELECTs (SQL splitting).
func (t *Translator) translatePath(p *xpath.Path, slots map[xpath.Expr]int) ([]*sqlast.Select, error) {
	if !p.Absolute {
		return nil, fmt.Errorf("top-level paths must be absolute")
	}
	if len(p.Steps) == 0 {
		// '/': the document element(s).
		p = &xpath.Path{Absolute: true, Steps: []*xpath.Step{{Axis: xpath.Child, Test: xpath.NameTest}}}
	}
	frags, terminal, err := splitPPFs(p.Steps)
	if err != nil {
		return nil, err
	}
	if len(frags) == 0 {
		return nil, fmt.Errorf("path has no location steps")
	}
	if frags[0].kind != ppfForward {
		return nil, fmt.Errorf("an absolute path must begin with a forward step")
	}
	combos, err := t.enumerate(frags, nil)
	if err != nil {
		return nil, err
	}
	var selects []*sqlast.Select
	for _, combo := range combos {
		b := t.newBuilder(slots)
		sel := &sqlast.Select{Distinct: true}
		end, ok, err := b.buildChain(sel, frags, combo, chainCtx{})
		if err != nil {
			return nil, err
		}
		if !ok || !b.applyTerminal(sel, end, terminal) {
			continue
		}
		sel.Cols = []sqlast.SelectCol{
			{Expr: sqlast.C(end.alias, shred.ColID), Alias: "id"},
			{Expr: sqlast.C(end.alias, shred.ColDewey), Alias: "dewey_pos"},
		}
		selects = append(selects, sel)
	}
	return selects, nil
}

// applyTerminal adds the restriction of a terminal attribute or
// text() step; false prunes the select statically.
func (b *builder) applyTerminal(sel *sqlast.Select, end chainCtx, terminal *xpath.Step) bool {
	if terminal == nil {
		return true
	}
	cond := b.valueTest(end, terminal, nil)
	sel.AddConjunct(cond.expr)
	return !cond.isFalse
}

// enumerate lists the relation combinations for a fragment chain
// starting from the given context nodes (nil = document roots).
func (t *Translator) enumerate(frags []*ppf, start []*schema.Node) ([][]*schema.Node, error) {
	var out [][]*schema.Node
	var rec func(i int, ctx []*schema.Node, acc []*schema.Node) error
	rec = func(i int, ctx []*schema.Node, acc []*schema.Node) error {
		if i == len(frags) {
			out = append(out, append([]*schema.Node(nil), acc...))
			if len(out) > t.opts.maxCombos {
				return fmt.Errorf("SQL splitting exceeds %d combinations", t.opts.maxCombos)
			}
			return nil
		}
		cands := t.m.candidates(frags[i], ctx, i == 0 && start == nil)
		for _, c := range cands {
			if err := rec(i+1, []*schema.Node{c}, append(acc, c)); err != nil {
				return err
			}
		}
		return nil
	}
	ctx := start
	if err := rec(0, ctx, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// buildChain implements Algorithm 1 over a fragment chain, extending
// sel. start.alias == "" means the chain begins the backbone (from
// the document root). ok=false means the select is statically empty.
func (b *builder) buildChain(sel *sqlast.Select, frags []*ppf, combo []*schema.Node, start chainCtx) (chainCtx, bool, error) {
	cur := start
	for i, f := range frags {
		node := combo[i]
		ref := b.tr.m.relation(b, node)
		alias := ref.Alias
		sel.From = append(sel.From, ref)

		switch f.kind {
		case ppfForward:
			// Extend or restart the forward run (getMaxForwardPath).
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
				return cur, false, err
			}
			ok, err := b.addPathFilter(sel, alias, node, pattern)
			if err != nil || !ok {
				return cur, false, err
			}
			if cur.alias != "" {
				if err := b.structuralJoin(sel, cur, alias, node, f); err != nil {
					return cur, false, err
				}
			}
		case ppfBackward:
			if cur.alias == "" {
				return cur, false, fmt.Errorf("a backward fragment needs a preceding context")
			}
			pattern, err := backwardRegex(f.steps, cur.namePat, b.tr.opts.PatternTrace)
			if err != nil {
				return cur, false, err
			}
			// The regex constrains the previous prominent relation's path.
			ok, err := b.addPathFilter(sel, cur.alias, cur.node, pattern)
			if err != nil || !ok {
				return cur, false, err
			}
			if ok, err = b.addNodeTest(sel, alias, node, f.prominent()); err != nil || !ok {
				return cur, false, err
			}
			if err := b.structuralJoin(sel, cur, alias, node, f); err != nil {
				return cur, false, err
			}
			cur.run, cur.anchored, cur.runBase = nil, false, ""
		case ppfHorizontal:
			if cur.alias == "" {
				return cur, false, fmt.Errorf("a horizontal fragment needs a preceding context")
			}
			if ok, err := b.addNodeTest(sel, alias, node, f.steps[0]); err != nil || !ok {
				return cur, false, err
			}
			b.horizontalJoin(sel, cur.alias, alias, f.steps[0].Axis)
			cur.run, cur.anchored, cur.runBase = nil, false, ""
		}

		cur.alias = alias
		cur.node = node
		cur.namePat = b.tr.m.namePat(node, f.prominent())
		cur.lastStep = f.prominent()

		// Predicates of the prominent step.
		if err := checkPredicateOrder(f.prominent()); err != nil {
			return cur, false, err
		}
		for _, pred := range f.prominent().Predicates {
			cond, err := b.translatePredicate(sel, pred, cur)
			if err != nil {
				return cur, false, err
			}
			if cond.isFalse {
				return cur, false, nil
			}
			if !cond.isTrue {
				sel.AddConjunct(cond.expr)
			}
		}
	}
	return cur, true, nil
}

// addPathFilter joins alias with the paths relation and filters by
// pattern, honoring the Section 4.5 omission rules. ok=false means
// the pattern excludes every possible path of the relation: the
// select is statically empty.
func (b *builder) addPathFilter(sel *sqlast.Select, alias string, node *schema.Node, pattern string) (bool, error) {
	cond, err := b.pathFilterCond(sel, alias, node, pattern)
	if err != nil {
		return false, err
	}
	if cond.isFalse {
		return false, nil
	}
	if !cond.isTrue {
		sel.AddConjunct(cond.expr)
	}
	return true, nil
}

// addNodeTest filters alias's path to end with the step's node test
// (Algorithm 1 lines 6-7) where the mapping's relation does not
// already imply it.
func (b *builder) addNodeTest(sel *sqlast.Select, alias string, node *schema.Node, step *xpath.Step) (bool, error) {
	pattern := b.tr.m.nodeTest(step)
	if pattern == "" {
		return true, nil
	}
	return b.addPathFilter(sel, alias, node, pattern)
}

// sqlCond is a three-valued translated condition.
type sqlCond struct {
	expr    sqlast.Expr
	isTrue  bool
	isFalse bool
}

var condTrue = sqlCond{isTrue: true}
var condFalse = sqlCond{isFalse: true}

func dyn(e sqlast.Expr) sqlCond { return sqlCond{expr: e} }

// or is the three-valued disjunction.
func (c sqlCond) or(d sqlCond) sqlCond {
	switch {
	case c.isTrue || d.isFalse:
		return c
	case d.isTrue || c.isFalse:
		return d
	}
	return dyn(sqlast.Or(c.expr, d.expr))
}

// pathFilterCond produces the path-filter condition for a relation,
// applying the marking rules statically where possible. The decision
// itself is delegated to schema.JustifyOmission (the single source of
// truth plancheck audits) and reported through the omission trace.
func (b *builder) pathFilterCond(sel *sqlast.Select, alias string, node *schema.Node, pattern string) (sqlCond, error) {
	if b.tr.opts.PathFilterOmission {
		matches := func(string) bool { return false } // I-P never consults it
		if node.Mark != schema.InfinitePaths {
			re, err := pathre.Compile(pattern)
			if err != nil {
				return sqlCond{}, fmt.Errorf("bad path pattern %q: %w", pattern, err)
			}
			matches = re.MatchString
		}
		decision, ev := node.JustifyOmission(matches)
		if observe := b.tr.opts.OmissionTrace; observe != nil {
			observe(OmissionTrace{Node: node, Pattern: pattern, Decision: decision, Evidence: ev})
		}
		switch decision {
		case schema.OmitFilter:
			return condTrue, nil
		case schema.EmptyResult:
			return condFalse, nil
		}
	}
	pathsAlias := b.joinWithPaths(sel, alias)
	return dyn(sqlast.RegexpLike(sqlast.C(pathsAlias, "path"), pattern)), nil
}

// joinWithPaths ensures alias is joined to the paths relation,
// returning the paths alias.
func (b *builder) joinWithPaths(sel *sqlast.Select, alias string) string {
	if pa, ok := b.joined[sel][alias]; ok {
		return pa
	}
	// The paths alias is unique statement-wide (newAlias), not just
	// per scope: a subquery may re-join an outer alias's paths row,
	// and reusing the bare name would shadow the enclosing join.
	pa := b.newAlias(alias + "_paths")
	sel.From = append(sel.From, sqlast.TableRef{Table: shred.PathsTable, Alias: pa})
	sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPath), sqlast.C(pa, shred.ColID)))
	if b.joined[sel] == nil {
		b.joined[sel] = map[string]string{}
	}
	b.joined[sel][alias] = pa
	return pa
}

// structuralJoin joins the previous prominent relation to the current
// one per Table 2, using FK equijoins for single child/parent steps
// when enabled. When the deeper relation is recursive (I-P), the
// Dewey range alone is not exact: a fragment spanning an exact number
// of levels additionally pins the level difference, and a
// variable-depth fragment checks the path suffix between the two
// elements against the fragment's own pattern.
func (b *builder) structuralJoin(sel *sqlast.Select, prev chainCtx, alias string, node *schema.Node, f *ppf) error {
	if b.tr.opts.FKChildParent && len(f.steps) == 1 {
		switch f.steps[0].Axis {
		case xpath.Child:
			sel.AddConjunct(sqlast.Eq(sqlast.C(alias, shred.ColPar), sqlast.C(prev.alias, shred.ColID)))
			return nil
		case xpath.Parent:
			sel.AddConjunct(sqlast.Eq(sqlast.C(prev.alias, shred.ColPar), sqlast.C(alias, shred.ColID)))
			return nil
		}
	}
	switch f.kind {
	case ppfForward:
		// Current is a descendant(-or-self) of previous: Table 2 (1).
		sel.AddConjunct(&sqlast.Between{
			X:  sqlast.C(alias, shred.ColDewey),
			Lo: sqlast.C(prev.alias, shred.ColDewey),
			Hi: deweyLimit(prev.alias),
		})
		if !forwardInclusive(f) && node == prev.node {
			sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpNe,
				L: sqlast.C(alias, shred.ColID), R: sqlast.C(prev.alias, shred.ColID)})
		}
		if node.Mark == schema.InfinitePaths {
			if allChild(f) {
				sel.AddConjunct(levelPin(alias, prev.alias, len(f.steps)))
			} else {
				pattern, err := forwardSuffixRegex(f.steps, prev.namePat, b.tr.opts.PatternTrace)
				if err != nil {
					return err
				}
				sel.AddConjunct(b.suffixCheck(sel, alias, prev.alias, pattern))
			}
		}
	case ppfBackward:
		// Current is an ancestor(-or-self) of previous: Table 2 (2).
		sel.AddConjunct(&sqlast.Between{
			X:  sqlast.C(prev.alias, shred.ColDewey),
			Lo: sqlast.C(alias, shred.ColDewey),
			Hi: deweyLimit(alias),
		})
		if !backwardInclusive(f) && node == prev.node {
			sel.AddConjunct(&sqlast.Binary{Op: sqlast.OpNe,
				L: sqlast.C(alias, shred.ColID), R: sqlast.C(prev.alias, shred.ColID)})
		}
		if prev.node.Mark == schema.InfinitePaths {
			if allParent(f) {
				sel.AddConjunct(levelPin(prev.alias, alias, len(f.steps)))
			} else {
				pattern, err := backwardSuffixRegex(f.steps, prev.namePat, b.tr.opts.PatternTrace)
				if err != nil {
					return err
				}
				sel.AddConjunct(b.suffixCheck(sel, prev.alias, alias, pattern))
			}
		}
	}
	return nil
}

// levelPin emits 'LENGTH(deep.dewey_pos) = LENGTH(shallow.dewey_pos) + 3k'.
func levelPin(deepAlias, shallowAlias string, k int) sqlast.Expr {
	return sqlast.Eq(
		&sqlast.Func{Name: "LENGTH", Args: []sqlast.Expr{sqlast.C(deepAlias, shred.ColDewey)}},
		&sqlast.Binary{Op: sqlast.OpAdd,
			L: &sqlast.Func{Name: "LENGTH", Args: []sqlast.Expr{sqlast.C(shallowAlias, shred.ColDewey)}},
			R: sqlast.Int(int64(3 * k))})
}

// suffixCheck emits the boundary-exactness condition: the deeper
// element's root path, after stripping the shallower element's root
// path, must match the fragment's anchored pattern. Both relations
// join the paths relation.
func (b *builder) suffixCheck(sel *sqlast.Select, deepAlias, shallowAlias, pattern string) sqlast.Expr {
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

// horizontalJoin emits the Table 2 (3)-(6) condition.
func (b *builder) horizontalJoin(sel *sqlast.Select, prevAlias, alias string, axis xpath.Axis) {
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

// deweyLimit renders 'alias.dewey_pos || X'FF”: the exclusive upper
// bound of the alias's descendant range.
func deweyLimit(alias string) sqlast.Expr {
	return &sqlast.Binary{Op: sqlast.OpConcat,
		L: sqlast.C(alias, shred.ColDewey), R: sqlast.Bytes([]byte{0xFF})}
}

// forwardInclusive reports whether a forward fragment can select the
// context node itself (every step descendant-or-self).
func forwardInclusive(f *ppf) bool {
	for _, s := range f.steps {
		if s.Axis != xpath.DescendantOrSelf {
			return false
		}
	}
	return true
}

// backwardInclusive reports whether a backward fragment can select
// the context node itself.
func backwardInclusive(f *ppf) bool {
	for _, s := range f.steps {
		if s.Axis != xpath.AncestorOrSelf {
			return false
		}
	}
	return true
}
