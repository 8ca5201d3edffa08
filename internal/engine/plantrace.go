package engine

import (
	"fmt"
	"sort"

	"repro/internal/sqlast"
)

// The plan-shape surface decompiles a compiled statement back into an
// exported, sqlast-level description of what the planner and the
// physical lowering actually produced: the chosen join order, the
// access path of every step with its key expressions, the placement
// of every residual conjunct, and the lowered operator pipeline. The
// plancheck certificate checker consumes this to prove the compiled
// plan equivalent to the statement it came from, and it is the only
// description of a compiled plan: EXPLAIN renders its lines from it
// (explain.go), so the plan a person reads is the plan plancheck
// checked. The description is rebuilt from the compiled artifacts
// themselves (cexpr trees, access structs, phys nodes) — never from
// planner bookkeeping strings — so a planner bug cannot hide behind its
// own explanation. It is built on demand (EXPLAIN, PlanShape,
// VerifyPlan), never when a statement compiles or executes.

// Subplan marker function names: correlated subqueries inside shape
// expressions are replaced by pseudo-calls carrying the index of the
// corresponding SubplanShape. The planner rejects unknown function
// names, so no user statement can collide with these.
const (
	MarkerExists    = "EXISTS_SUBPLAN"
	MarkerNotExists = "NOT_EXISTS_SUBPLAN"
	MarkerScalar    = "SCALAR_SUBPLAN"
)

// Set-test marker function names: the tests plan-time resolution
// derives (resolve.go) appear among a step's filters as
// IN_KEY_SET(<fact column>, i) and IN_PAIR_SET(<fact column>, <fact
// column>, j), i indexing SelectShape.Resolved and j SelectShape.Pairs.
const (
	MarkerKeySet  = "IN_KEY_SET"
	MarkerPairSet = "IN_PAIR_SET"
)

// ExprShape is one decompiled expression: the sqlast tree with every
// column reference qualified by its resolved alias, plus the set of
// aliases the expression depends on (including aliases of enclosing
// selects, for correlated subplan markers).
type ExprShape struct {
	Expr sqlast.Expr
	Refs []string // sorted, deduplicated
}

// Text renders the expression ("" for an absent optional expression).
func (e ExprShape) Text() string {
	if e.Expr == nil {
		return ""
	}
	return e.Expr.String()
}

// OrderShape is one ORDER BY key of the compiled plan.
type OrderShape struct {
	Key  ExprShape
	Desc bool
}

// AccessShape describes the access path chosen for one join step,
// including the index metadata that must justify it.
type AccessShape struct {
	// Kind is one of "full-scan", "index-eq", "hash-eq", "fat-hash",
	// "index-prefixes", "index-range", "key-probe".
	Kind string
	// Index and IndexCols identify the index used (empty for scans and
	// hash joins); IndexCols are the index's column names in key order.
	Index     string
	IndexCols []string
	// Col is the accessed column's name (leading index column, or the
	// hash-join column).
	Col string
	// Keys are the index-eq key expressions, one per leading column.
	Keys []ExprShape
	// Key is the hash-join probe key or the index-prefixes probe value.
	Key ExprShape
	// Lo/Hi are the index-range bounds (absent => zero ExprShape).
	Lo, Hi   ExprShape
	LoStrict bool
	HiStrict bool
	// Resolved is, for "key-probe", the index in SelectShape.Resolved of
	// the key set whose keys are probed on Col, through Index.
	Resolved int
	// Merged reports, for "key-probe", that the keys' posting lists are
	// merged into ascending row-id order instead of concatenated.
	Merged bool
	// BuiltOver is, for "hash-eq" and "fat-hash", the key set the hash is
	// built over, and for "index-prefixes" and a Dewey window's
	// "index-range" the key set whose scoped run is searched instead of
	// the index: the access reads only the rows a key test of the step
	// admits. nil: it reads every row of the table.
	BuiltOver *KeySetScope
}

// KeySetScope names the rows a restricted hash build or a scoped run
// holds: those whose column Col holds a key of
// SelectShape.Resolved[Resolved].
type KeySetScope struct {
	Resolved int
	Col      string
}

// UniqueShape is the evidence of a select lowered without its
// "distinct" operator: the rows are duplicate-free because every
// projected and ORDER BY expression reads only the driving alias Alias,
// whose projected column Col is unique (Index is the single-column
// index the planner read that off). With more than one step the later
// ones are then existential and run first-match. plancheck re-derives
// all of it — the references from the shape's own expressions, the
// uniqueness over the table's rows.
type UniqueShape struct {
	Alias, Col, Index string
}

// RowOrderShape is the evidence of a select lowered without its "sort"
// operator, or of a UNION branch merged in order: the rows arrive
// ordered by column Col of the driving alias Alias, ascending. With
// Index empty the claim is that the driving access yields row ids
// ascending and that row-id order is Col's order in the table; with
// Index set, that the access is a range scan of that index, led by Col.
type RowOrderShape struct {
	Alias, Col, Index string
}

// UnnestShape is one positive EXISTS conjunct the planner merged into
// the select (unnest.go): Source is the conjunct as the statement has
// it, Parent the group whose sub-select held it (an index into
// SelectShape.Unnested, -1 for a conjunct of the select's own WHERE),
// Aliases the sub-select's FROM entries in order, and Members its
// conjuncts, decompiled from wherever the plan evaluates them. It is
// evidence: plancheck nests the group back into a sub-select before
// it compares the plan with the statement, and re-derives that the
// rewrite was legal.
type UnnestShape struct {
	Source  *sqlast.Exists
	Parent  int
	Aliases []UnnestAlias
	Members []ExprShape
}

// UnnestAlias is one merged FROM entry: Alias is its name in the plan,
// Was its name in the statement (they differ where the planner renamed
// an alias the statement declares more than once).
type UnnestAlias struct {
	Alias, Was, Table string
}

// ResolvedShape is one FROM alias the planner resolved at plan time:
// the dimension Alias, reached by the one equality Join between its
// unique key column Key and the fact column FactAlias.FactCol, and the
// Keys its rows that pass Conds — its own single-table conjuncts —
// hold. It is evidence, not explanation: plancheck re-derives Keys
// from Conds over the table's rows, re-checks the key's uniqueness,
// and for an eliminated alias (absent from Steps; Join and Conds then
// run nowhere) that nothing else in the select mentions it.
type ResolvedShape struct {
	Alias, Table       string
	Key                string
	FactAlias, FactCol string
	Join               ExprShape
	Conds              []ExprShape
	Keys               []int64 // ascending
	Eliminated         bool
	// KeptBy names the reference that kept a non-eliminated alias in the
	// plan, for reports.
	KeptBy string
}

// PairShape is one conjunct over two resolved aliases (indexes into
// SelectShape.Resolved) that the plan replaced by a test of their fact
// columns against Pairs, the key pairs whose rows satisfy Cond.
type PairShape struct {
	A, B  int
	Cond  ExprShape
	Pairs [][2]int64 // ascending
}

// OmittedShape is one residual conjunct the planner dropped because
// the pinned synopsis proves it true for every row of the step's
// table. The evidence fields pin the exact synopsis facts the decision
// used; plancheck re-derives the proof from them (and re-checks them
// against the table's synopsis) rather than trusting Reason.
type OmittedShape struct {
	Pred ExprShape
	// Reason is "not-null", "int-range" or "empty-table".
	Reason string
	// Rows/Nulls/Min/Max are the synopsis facts claimed as evidence:
	// table row count, the column's null count, and (for "int-range")
	// the column's exact integer min/max.
	Rows, Nulls int64
	Min, Max    int64
}

// StepShape is one join step: table binding, access path, residual
// filters, and the planner's cardinality estimate with provenance.
type StepShape struct {
	Alias   string
	Table   string
	Access  AccessShape
	Filters []ExprShape
	// EstRows is the estimated rows this step yields per binding of the
	// earlier steps after residual filters, EstAccess the rows its access
	// path yields before them; EstSource records where the numbers came
	// from ("synopsis" or "default").
	EstRows   float64
	EstAccess float64
	EstSource string
	// EstPeeked lists the parameter slots whose compile-time values the
	// estimate read (ascending); the numbers describe that binding.
	EstPeeked []int
	// Omitted lists filters proven redundant and dropped (never
	// executed); plancheck adds them back into the predicate multiset
	// and re-justifies each omission from its evidence.
	Omitted []OmittedShape
}

// SubplanShape is one correlated subquery of a select, referenced from
// expressions by marker index. Subplans are numbered in the order the
// lowering evaluates them: prefilters, each step's filters, the
// projection, the ORDER BY keys.
type SubplanShape struct {
	// Kind is "exists", "not-exists", "scalar" or "count".
	Kind   string
	Select *SelectShape
	// Source is the sub-select as the statement has it.
	Source *sqlast.Select
}

// SelectShape is the decompiled form of one compiled SELECT.
type SelectShape struct {
	Distinct   bool
	CountStar  bool
	Cols       []ExprShape
	ColNames   []string
	PreFilters []ExprShape
	Steps      []StepShape
	OrderBy    []OrderShape
	Subplans   []*SubplanShape
	// Pipeline lists the lowered physical operators in execution order
	// as canonical tokens: "prefilter", "scan <alias>",
	// "filter <alias>", "project", "count", "distinct", "sort".
	Pipeline []string
	// FromOrder is the statement's FROM order before join reordering;
	// JoinMethod records how the binding order was chosen ("single",
	// "dp" or "greedy").
	FromOrder  []string
	JoinMethod string
	// FreeRefs are the aliases referenced but not bound by this select
	// (its correlation variables), sorted.
	FreeRefs []string
	// Resolved and Pairs are the select's plan-time resolutions, which
	// the IN_KEY_SET / IN_PAIR_SET markers in Steps' filters and the
	// "key-probe" accesses refer to by index.
	Resolved []ResolvedShape
	Pairs    []PairShape
	// Unique and RowOrder are the proofs (nil when absent) on which the
	// lowering left "distinct" and "sort" out of Pipeline.
	Unique   *UniqueShape
	RowOrder *RowOrderShape
	// FirstMatchFrom is the index in Steps of the first step of the
	// first-match run, 0 without one: the executor stops the steps from
	// there on at the first full match of the bindings before them.
	// Unique justifies a run from step 1; otherwise only a trailing run
	// of existential aliases is one.
	FirstMatchFrom int
	// Unnested are the EXISTS conjuncts merged into the select; their
	// aliases are the existential ones.
	Unnested []UnnestShape
}

// UnionShape is the decompiled form of a compiled UNION.
type UnionShape struct {
	Branches  []*SelectShape
	Cols      []string
	OrderPos  []int
	OrderDesc []bool
	// Sort reports whether the lowering emitted a union-level sort
	// operator; Merge that the union instead merges its branches by the
	// order key, which every branch's RowOrder must justify.
	Sort  bool
	Merge bool
}

// ParamShape is one parameter slot the plan reads: the kind it was
// compiled for, where the plan reads it — "prefilter", "access <alias>",
// "filter <alias>", "omitted <alias>", "resolved <alias>", "pair",
// "projection", "order-by", in decompilation order, subplans included —
// and whether an estimate used the value the compile-triggering call
// bound to it. A slot is a value for estimates only: plancheck's params
// obligation re-derives that nothing omitted, resolved or proven reads
// one.
type ParamShape struct {
	Slot   int
	Kind   sqlast.ParamKind
	ReadBy []string
	Peeked bool
}

// StmtShape is the decompiled form of a compiled statement; exactly
// one of Select/Union is set. Params lists the parameter slots the plan
// reads, ascending.
type StmtShape struct {
	SQL    string
	Select *SelectShape
	Union  *UnionShape
	Params []ParamShape
}

// PlanTrace is what an ExecOptions.VerifyPlan function receives: the
// statement about to execute and the decompiled plan it compiled to.
type PlanTrace struct {
	// SQL is the plan-cache key (the canonical rendering of Stmt).
	SQL string
	// Stmt is the statement that was compiled.
	Stmt sqlast.Statement
	// Shape is the decompiled plan.
	Shape *StmtShape
}

// verifyCompiled runs an ExecOptions.VerifyPlan function against a
// compiled statement (cached or fresh). A shape-extraction failure is
// itself a rejection: the compiled plan contains something the
// decompiler cannot explain.
func verifyCompiled(verify func(PlanTrace) error, st sqlast.Statement, key string, cs *compiledStmt) error {
	sh, err := shapeStmt(cs, key)
	if err != nil {
		return fmt.Errorf("engine: plan shape extraction: %w", err)
	}
	if err := verify(PlanTrace{SQL: key, Stmt: st, Shape: sh}); err != nil {
		return fmt.Errorf("engine: plan verification rejected %q: %w", key, err)
	}
	return nil
}

// PlanShape compiles the statement (through the plan cache) and
// returns the decompiled shape of the plan that would execute.
func (db *DB) PlanShape(st sqlast.Statement) (*StmtShape, error) {
	key, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		return nil, err
	}
	return shapeStmt(cs, key)
}

// shapeStmt decompiles a compiled statement.
func shapeStmt(cs *compiledStmt, sql string) (*StmtShape, error) {
	out := &StmtShape{SQL: sql}
	params := paramNotes{}
	if cs.sel != nil {
		sh, err := shapeSelect(cs.sel, nil, params)
		if err != nil {
			return nil, err
		}
		out.Select, out.Params = sh, params.sorted()
		return out, nil
	}
	u := cs.union
	us := &UnionShape{
		Cols:      append([]string(nil), u.cols...),
		OrderPos:  append([]int(nil), u.orderPos...),
		OrderDesc: append([]bool(nil), u.orderDesc...),
		Sort:      u.phys != nil && u.phys.sort != nil,
		Merge:     u.merge,
	}
	for _, br := range u.branches {
		sh, err := shapeSelect(br, nil, params)
		if err != nil {
			return nil, err
		}
		us.Branches = append(us.Branches, sh)
	}
	out.Union, out.Params = us, params.sorted()
	return out, nil
}

// shapeBuilder carries the alias environment (local + enclosing) while
// decompiling one select's expressions.
type shapeBuilder struct {
	tables map[string]*Table
	owner  *SelectShape
	// memo keeps the shape of every expression decompiled for a select
	// with unnested groups, whose members are decompiled a second time:
	// the subplans under them must enter Subplans once.
	memo map[cexpr]ExprShape
	// params collects the statement's parameter slots; where names the
	// part of the plan being decompiled, for ParamShape.ReadBy.
	params paramNotes
	where  string
}

// paramNotes collects a statement's ParamShapes by slot.
type paramNotes map[int]*ParamShape

func (n paramNotes) slot(slot int) *ParamShape {
	ps := n[slot]
	if ps == nil {
		ps = &ParamShape{Slot: slot}
		n[slot] = ps
	}
	return ps
}

func (n paramNotes) sorted() []ParamShape {
	if len(n) == 0 {
		return nil
	}
	out := make([]ParamShape, 0, len(n))
	for _, ps := range n {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// shapeSelect decompiles one compiled select; outer maps the aliases
// of enclosing selects for correlated references (nil at top level).
func shapeSelect(p *selectPlan, outer map[string]*Table, params paramNotes) (*SelectShape, error) {
	sh := &SelectShape{
		Distinct:   p.distinct,
		CountStar:  p.countStar,
		ColNames:   append([]string(nil), p.colNames...),
		FromOrder:  append([]string(nil), p.fromOrder...),
		JoinMethod: p.joinMethod,

		FirstMatchFrom: p.firstFrom,
	}
	// The pipeline tokens name the lowered operators themselves, not the
	// plan's flags, so the shape reflects what the lowering emitted.
	step := -1
	for _, n := range p.phys.ops {
		tok := n.kind.String()
		switch {
		case n == p.phys.prefilter:
			tok = "prefilter"
		case n.kind == opScan:
			step++
			fallthrough
		case n.kind == opFilter:
			tok += " " + p.steps[step].name
		}
		sh.Pipeline = append(sh.Pipeline, tok)
	}
	if k := p.unique; k != nil {
		sh.Unique = &UniqueShape{Alias: p.steps[0].name, Col: p.steps[0].table.Cols[k.col].Name, Index: k.ix.Name}
	}
	if o := p.ordered; o != nil {
		sh.RowOrder = &RowOrderShape{Alias: p.steps[0].name, Col: p.steps[0].table.Cols[o.col].Name}
		if o.ix != nil {
			sh.RowOrder.Index = o.ix.Name
		}
	}
	tables := make(map[string]*Table, len(outer)+len(p.steps))
	for k, v := range outer {
		tables[k] = v
	}
	for _, s := range p.steps {
		tables[s.name] = s.table
	}
	// Eliminated aliases are not steps, but the evidence decompiled
	// below still names their columns.
	for _, r := range p.resolved {
		tables[r.alias] = r.table
	}
	sb := &shapeBuilder{tables: tables, owner: sh, params: params}
	if len(p.unnested) > 0 {
		sb.memo = map[cexpr]ExprShape{}
	}
	if err := sb.resolutions(p); err != nil {
		return nil, err
	}

	var all []ExprShape
	sb.where = "prefilter"
	for _, ce := range p.preFilters {
		es, err := sb.expr(ce)
		if err != nil {
			return nil, err
		}
		sh.PreFilters = append(sh.PreFilters, es)
		all = append(all, es)
	}
	for _, s := range p.steps {
		ss := StepShape{Alias: s.name, Table: s.table.Name}
		sb.where = "access " + s.name
		as, err := s.access.shape(sb, s.table)
		if err != nil {
			return nil, err
		}
		ss.Access = as
		all = append(all, as.Keys...)
		all = append(all, as.Key, as.Lo, as.Hi)
		sb.where = "filter " + s.name
		for _, f := range s.filters {
			es, err := sb.expr(f)
			if err != nil {
				return nil, err
			}
			ss.Filters = append(ss.Filters, es)
			all = append(all, es)
		}
		ss.EstRows, ss.EstAccess, ss.EstSource = s.estRows, s.estAccess, s.estSource
		ss.EstPeeked = append([]int(nil), s.estPeeked...)
		sort.Ints(ss.EstPeeked)
		for _, slot := range s.estPeeked {
			params.slot(slot).Peeked = true
		}
		sb.where = "omitted " + s.name
		for _, of := range s.omitted {
			es, err := sb.expr(of.ce)
			if err != nil {
				return nil, err
			}
			ss.Omitted = append(ss.Omitted, OmittedShape{
				Pred: es, Reason: of.reason,
				Rows: of.rows, Nulls: of.nulls, Min: of.min, Max: of.max,
			})
			all = append(all, es)
		}
		sh.Steps = append(sh.Steps, ss)
	}
	sb.where = "projection"
	for _, c := range p.cols {
		es, err := sb.expr(c)
		if err != nil {
			return nil, err
		}
		sh.Cols = append(sh.Cols, es)
		all = append(all, es)
	}
	sb.where = "order-by"
	for _, o := range p.orderBy {
		es, err := sb.expr(o.x)
		if err != nil {
			return nil, err
		}
		sh.OrderBy = append(sh.OrderBy, OrderShape{Key: es, Desc: o.desc})
		all = append(all, es)
	}

	for _, g := range p.unnested {
		us := UnnestShape{Source: g.src, Parent: -1}
		if g.parent != nil {
			us.Parent = g.parent.index
		}
		for _, a := range g.aliases {
			us.Aliases = append(us.Aliases, UnnestAlias{Alias: a.name, Was: a.was, Table: a.table.Name})
		}
		for _, m := range g.members {
			es, err := sb.expr(m)
			if err != nil {
				return nil, err
			}
			us.Members = append(us.Members, es)
		}
		sh.Unnested = append(sh.Unnested, us)
	}

	local := make(map[string]bool, len(p.steps))
	for _, s := range p.steps {
		local[s.name] = true
	}
	free := map[string]bool{}
	for _, es := range all {
		for _, r := range es.Refs {
			if !local[r] {
				free[r] = true
			}
		}
	}
	sh.FreeRefs = sortedNames(free)
	return sh, nil
}

// resolutions exports the plan's resolutions as evidence. None of it
// counts towards FreeRefs: an eliminated alias is bound by nothing.
func (sb *shapeBuilder) resolutions(p *selectPlan) error {
	for _, r := range p.resolved {
		sb.where = "resolved " + r.alias
		rs := ResolvedShape{Alias: r.alias, Table: r.table.Name, Key: r.table.Cols[r.keyCol].Name,
			FactAlias: r.fact, FactCol: r.factT.Cols[r.factCol].Name,
			Keys: append([]int64(nil), r.keys.keys...), Eliminated: r.eliminated}
		if k := r.keptBy; k.e != nil {
			rs.KeptBy = k.how + " " + k.e.String()
		}
		var err error
		if rs.Join, err = sb.expr(r.joinExpr()); err != nil {
			return err
		}
		for _, ce := range r.ownCE {
			es, err := sb.expr(ce)
			if err != nil {
				return err
			}
			rs.Conds = append(rs.Conds, es)
		}
		sb.owner.Resolved = append(sb.owner.Resolved, rs)
	}
	sb.where = "pair"
	for _, pr := range p.pairs {
		cond, err := sb.expr(pr.cond)
		if err != nil {
			return err
		}
		sb.owner.Pairs = append(sb.owner.Pairs, PairShape{A: pr.a.index, B: pr.b.index,
			Cond: cond, Pairs: append([][2]int64(nil), pr.pairs.pairs...)})
	}
	return nil
}

// expr decompiles one compiled expression into an ExprShape.
func (sb *shapeBuilder) expr(x cexpr) (ExprShape, error) {
	if es, ok := sb.memo[x]; ok {
		return es, nil
	}
	refs := map[string]bool{}
	e, err := sb.decompile(x, refs)
	if err != nil {
		return ExprShape{}, err
	}
	es := ExprShape{Expr: e, Refs: sortedNames(refs)}
	if sb.memo != nil {
		sb.memo[x] = es
	}
	return es, nil
}

// decompile rebuilds the sqlast form of a compiled expression,
// qualifying columns with their resolved aliases and replacing
// correlated subplans with marker pseudo-calls.
func (sb *shapeBuilder) decompile(x cexpr, refs map[string]bool) (sqlast.Expr, error) {
	switch c := x.(type) {
	case *ccol:
		t := sb.tables[c.table]
		if t == nil {
			return nil, fmt.Errorf("unbound alias %q", c.table)
		}
		if c.pos < 0 || c.pos >= len(t.Cols) {
			return nil, fmt.Errorf("alias %q has no column position %d", c.table, c.pos)
		}
		refs[c.table] = true
		return sqlast.C(c.table, t.Cols[c.pos].Name), nil
	case *clit:
		return literalOf(c.v)
	case *cparam:
		ps := sb.params.slot(c.slot)
		ps.Kind = c.kind
		ps.ReadBy = append(ps.ReadBy, sb.where)
		return &sqlast.Param{Slot: c.slot, Kind: c.kind}, nil
	case *cbin:
		l, err := sb.decompile(c.l, refs)
		if err != nil {
			return nil, err
		}
		r, err := sb.decompile(c.r, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Binary{Op: c.op, L: l, R: r}, nil
	case *cnot:
		inner, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Not{X: inner}, nil
	case *cbetween:
		cx, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		lo, err := sb.decompile(c.lo, refs)
		if err != nil {
			return nil, err
		}
		hi, err := sb.decompile(c.hi, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Between{X: cx, Lo: lo, Hi: hi}, nil
	case *cisnull:
		inner, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.IsNull{X: inner, Negate: c.negate}, nil
	case *cfunc:
		f := &sqlast.Func{Name: c.name}
		for _, a := range c.args {
			ae, err := sb.decompile(a, refs)
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, ae)
		}
		return f, nil
	case *ckeyin:
		col, err := sb.decompile(&c.col, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Func{Name: MarkerKeySet, Args: []sqlast.Expr{col, sqlast.Int(int64(c.res.index))}}, nil
	case *cpairin:
		a, err := sb.decompile(&c.a, refs)
		if err != nil {
			return nil, err
		}
		b, err := sb.decompile(&c.b, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Func{Name: MarkerPairSet, Args: []sqlast.Expr{a, b, sqlast.Int(int64(c.res.index))}}, nil
	case *cexists:
		if c.negate {
			return sb.subplan("not-exists", MarkerNotExists, c.plan, refs)
		}
		return sb.subplan("exists", MarkerExists, c.plan, refs)
	case *csubq:
		if c.plan.countStar {
			return sb.subplan("count", MarkerScalar, c.plan, refs)
		}
		return sb.subplan("scalar", MarkerScalar, c.plan, refs)
	}
	return nil, fmt.Errorf("unknown compiled expression %T", x)
}

// subplan decompiles a correlated subplan into the select's Subplans
// and returns the marker that stands for it; the subplan's free
// references are the marker's.
func (sb *shapeBuilder) subplan(kind, marker string, p *selectPlan, refs map[string]bool) (sqlast.Expr, error) {
	sub, err := shapeSelect(p, sb.tables, sb.params)
	if err != nil {
		return nil, err
	}
	k := len(sb.owner.Subplans)
	sb.owner.Subplans = append(sb.owner.Subplans, &SubplanShape{Kind: kind, Select: sub, Source: p.source})
	for _, r := range sub.FreeRefs {
		refs[r] = true
	}
	return &sqlast.Func{Name: marker, Args: []sqlast.Expr{sqlast.Int(int64(k))}}, nil
}

// literalOf is the literal that evaluates to v.
func literalOf(v Value) (sqlast.Expr, error) {
	switch v.Kind {
	case KNull:
		return &sqlast.NullLit{}, nil
	case KInt:
		return sqlast.Int(v.I), nil
	case KFloat:
		return &sqlast.FloatLit{Value: v.F}, nil
	case KText:
		return sqlast.Str(v.S), nil
	case KBytes:
		return sqlast.Bytes(v.B), nil
	}
	return nil, fmt.Errorf("literal of kind %v", v.Kind)
}

// indexColNames resolves an index's column positions to names.
func indexColNames(t *Table, ix *Index) []string {
	out := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		out[i] = t.Cols[c].Name
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
