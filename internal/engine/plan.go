package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sqlast"
)

// selectPlan is a compiled SELECT: an ordered sequence of table
// access steps with per-step residual filters, plus the compiled
// projection and ORDER BY keys.
type selectPlan struct {
	distinct   bool
	cols       []cexpr
	colNames   []string
	countStar  bool
	preFilters []cexpr // conjuncts that reference no local table
	steps      []*joinStep
	orderBy    []corder
	// fromOrder is the statement's FROM order before join reordering
	// and joinMethod how the binding order was chosen ("single", "dp"
	// or "greedy") — recorded for the exported plan shape
	// (plantrace.go) so the certificate checker can report the
	// reordering step it validated.
	fromOrder  []string
	joinMethod string
	// resolved and pairs are the select's plan-time resolutions
	// (resolve.go): the dimensions whose joins became key-set tests —
	// eliminated ones are in fromOrder but not in steps — and the
	// conjuncts over two of them that became pair-set tests. Kept for
	// the exported shape, from which plancheck re-derives every set.
	resolved []*resolution
	pairs    []*pairResolution
	// unique and ordered are the properties the planner proved of the
	// rows the steps emit (implied.go): with unique set the plan lowers
	// without its distinct operator and stops later steps at the first
	// match, with ordered set without its sort (or, for a UNION branch,
	// into an ordered merge) and evaluates no ORDER BY keys.
	unique  *keyProof
	ordered *orderProof
	// unnested are the positive EXISTS conjuncts merged into this select
	// (unnest.go); their aliases are existential steps. firstFrom is the
	// first step of the first-match run (implied.go), 0 without one: the
	// steps from there on stop at the first full match of the bindings
	// before them.
	unnested  []*unnestGroup
	firstFrom int
	// morsels marks a top-level select worth the morsel executor
	// (parallel.go, worthMorsels), derived from the estimates when the
	// select is planned.
	morsels bool
	// phys is the lowered physical operator pipeline (physplan.go),
	// set by lowerStmt for every plan reachable from a compiled
	// statement — including correlated subplans.
	phys *physSelect
	// source is the correlated sub-select the plan compiles, as the
	// statement has it (nil for top-level plans), exported as
	// SubplanShape.Source.
	source *sqlast.Select
}

type corder struct {
	x    cexpr
	desc bool
}

// joinStep binds one FROM table using an access path, then applies
// residual filters.
type joinStep struct {
	name  string
	slot  int // the alias's env slot
	table *Table
	// st is the table state the plan was compiled against: the
	// statement's snapshot pin. Execution reads cells and builds hash
	// indexes through st, never through the live table, so a running
	// query is untouched by concurrent commits; the plan cache retires
	// the plan (plancache.go) once the live state moves on.
	st      *tableState
	access  accessPath
	filters []cexpr
	// existential: the alias came out of an unnested EXISTS; nothing the
	// select projects or orders by reads it.
	existential bool
	// estAccess/estRows are the planner's cardinality estimates for
	// this step — rows the access path yields per binding, and rows
	// surviving the residual filters — with estSource recording their
	// provenance (EstSynopsis/EstDefault, estimate.go). They feed
	// EXPLAIN's est_rows, EXPLAIN ANALYZE's q-errors, and plancheck's
	// estimate-provenance obligation.
	estAccess float64
	estRows   float64
	estSource string
	// estPeeked are the parameter slots whose compile-time values the
	// estimates read: the numbers describe that binding, and the plan
	// they chose serves every later one.
	estPeeked []int
	// omitted holds single-table conjuncts the planner dropped because
	// the snapshot's synopsis proves them true for every row (§4.5-style
	// omission beyond schema proofs). Never executed; exported through
	// the plan shape so plancheck can re-justify each omission.
	omitted []omittedFilter
}

// accessPath determines which rows of a table are visited given the
// rows bound so far. It is both the planner's cost abstraction
// (rank/est) and the executor's scan-operator contract (enumerate,
// implemented per access kind in access.go).
type accessPath interface {
	// rank orders access kinds for tie-breaking (lower is better).
	rank() int
	// est estimates the rows this access yields per binding of the
	// already-bound tables — the planner's cost metric, evaluated by
	// the compiling planner p against the snapshot state the plan is
	// compiled for.
	est(p *planner, st *tableState) int
	// enumerate pushes the candidate row ids for the step under the
	// current bindings, in the executor's canonical order, batched
	// through sc.idBuf (or zero-copy sub-slices of an explicit run or
	// a hash bucket),
	// recording probes and governor charges against the scan's
	// OpStats.
	enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error
	// shape describes the access path for the exported plan shape
	// (plantrace.go), which is also what EXPLAIN renders, decompiling
	// key expressions through sb; implemented per access kind in
	// access.go.
	shape(sb *shapeBuilder, t *Table) (AccessShape, error)
}

type fullScan struct{}

func (fullScan) rank() int                          { return 8 }
func (fullScan) est(p *planner, st *tableState) int { return st.n }

// indexEq is a point lookup on an index whose leading columns are all
// bound by equality.
type indexEq struct {
	ix   *Index
	keys []cexpr // one per leading column
}

func (a *indexEq) rank() int { return 1 }
func (a *indexEq) est(p *planner, st *tableState) int {
	if a.ix.keys > 0 {
		return maxInt(1, a.ix.n/a.ix.keys)
	}
	return 1
}

// hashEq is an equality lookup through a transient hash index — the
// engine's hash join. With restrict set the index holds only the rows
// that key test of the step admits: the join builds over its filtered
// input. The test stays among the step's filters.
type hashEq struct {
	col      int
	key      cexpr
	restrict *keyProbe
}

func (a *hashEq) rank() int { return 2 }
func (a *hashEq) est(p *planner, st *tableState) int {
	// Estimate with the largest bucket: skewed join columns (e.g. a
	// path id shared by half the relation) must not look selective.
	return maxInt(1, p.build(st, buildKey{col: a.col}).max)
}

// indexPrefixes is the ancestor access path: for a condition
// 'X BETWEEN t.col AND t.col || X'FF” with X bound, the matching
// t.col values are exactly the byte prefixes of X, so the step does
// one index lookup per prefix length instead of a scan. With restrict
// set it searches the scoped run of the rows that key test of the step
// admits instead (deweyRun), once per value length the run holds. The
// test stays among the step's filters.
type indexPrefixes struct {
	ix       *Index
	x        cexpr
	restrict *keyProbe
}

func (a *indexPrefixes) rank() int { return 2 }
func (a *indexPrefixes) est(p *planner, st *tableState) int {
	return minInt(st.n, defaultDeweyFanout)
}

// keyProbe is a key test (resolve.go): the rows whose column holds a
// key of a plan-time key set. Where a single-column index is on the
// column it is also an access path, which enumerates the rows by one
// probe per key, in ascending key order, of the index: the posting
// lists of the keys. Without one it offers no access and the test
// stays a filter.
type keyProbe struct {
	col  int
	ix   *Index // nil: no index on col, no access
	res  *resolution
	rows float64 // the fact rows holding a key, by the column's histogram
	// merged makes the probe yield row ids ascending — the keys' posting
	// lists merged instead of concatenated — for a plan whose proven
	// order rests on it (implied.go).
	merged bool
}

// rank ties with a full scan so that a key set covering every row
// loses to one: the scan probes no index and keeps row order.
func (a *keyProbe) rank() int                          { return 8 }
func (a *keyProbe) est(p *planner, st *tableState) int { return int(a.rows) }

// The methods below describe a key test as the scope of another access
// (buildScope): the rows a hash join builds over, or a Dewey step runs
// over. A nil test scopes nothing: the access reads every row.

// scope is the rows the access reads.
func (a *keyProbe) scope() hashScope {
	if a == nil {
		return hashScope{}
	}
	return hashScope{col: a.col, keys: a.res.keys}
}

// share is the fraction of the table's rows (of rows) the access reads.
func (a *keyProbe) share(rows int64) float64 {
	if a == nil || rows <= 0 {
		return 1
	}
	return a.rows / float64(rows)
}

// builtOver is the plan-shape evidence of the scope.
func (a *keyProbe) builtOver(t *Table) *KeySetScope {
	if a == nil {
		return nil
	}
	return &KeySetScope{Resolved: a.res.index, Col: t.Cols[a.col].Name}
}

// fatHash wraps a hash join whose average bucket is large enough that
// it behaves like a scan; it ranks with full scans so the planner
// prefers genuinely selective paths.
type fatHash struct{ h *hashEq }

func (a *fatHash) rank() int                          { return 8 }
func (a *fatHash) est(p *planner, st *tableState) int { return a.h.est(p, st) }

// indexRange scans an index over a [lo, hi] interval computed from
// the bound rows. Either bound may be absent.
type indexRange struct {
	ix       *Index
	lo, hi   cexpr // nil when unbounded
	loStrict bool
	hiStrict bool
	// prefix marks the Dewey descendant window '[x, x || lit]': hi is
	// lo extended by a literal, so the interval holds exactly the
	// indexed values x is a byte prefix of (up to the literal) and is
	// costed as a prefix access, not as a generic range.
	prefix bool
	// restrict, only on a prefix window, is the key test of the step
	// whose rows' scoped run (deweyRun) the window is read from instead
	// of the index. The test stays among the step's filters.
	restrict *keyProbe
}

func (a *indexRange) rank() int {
	if a.lo != nil && a.hi != nil {
		return 3
	}
	return 5
}

func (a *indexRange) est(p *planner, st *tableState) int {
	switch {
	case a.prefix:
		return minInt(st.n, defaultDeweyFanout)
	case a.lo != nil && a.hi != nil:
		return st.n/genericRangeDivisor + 1
	}
	return st.n/openRangeDivisor + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// planner compiles statements against one database snapshot: every
// table resolution, cost estimate, and pinned joinStep state comes
// from snap, so a plan is internally consistent even when a writer
// commits mid-compile (the plan cache then simply retires it early).
type planner struct {
	db   *DB
	snap *dbSnap
	// heuristic is DB.forceHeuristic as the compile found it, read once
	// so one statement never mixes the two modes: the planner then looks
	// at no data and plans on the named defaults alone.
	heuristic bool
	// touched records every table resolved while planning (including
	// tables of correlated subselects) so the plan cache can pin the
	// table states a cached plan depends on. Nil when the caller
	// doesn't need dependency tracking.
	touched map[*Table]bool
	// args are the values the call that triggered this compile binds to
	// the statement's parameter slots. To the planner a slot is a value
	// for estimates and opaque for facts (estimate.go): the next call
	// binds another value to the same plan. params collects the kinds of
	// the slots compiled so far, by slot, and peeked the slots whose
	// values estimates have read since planSelect last reset it.
	args   []Value
	params []Kind
	peeked []int
	// ctx and ac are the compiling call's context and accountant: a
	// build the planner makes to estimate (build) is charged to that
	// call's statement and stopped by its context, as the executor's
	// builds are. Both are nil for the plan describers, which run
	// nothing. err is the first failure of such a build, returned as
	// the compile's error (compileStmt).
	ctx context.Context
	ac  *accountant
	err error
	// slots counts the env slots handed out so far (newSlot): one per
	// FROM entry of every select the statement compiles.
	slots int
}

// newSlot hands out the next env slot.
func (p *planner) newSlot() int {
	p.slots++
	return p.slots - 1
}

// colRef compiles a reference to column pos of the alias name, which
// the scope chain binds to t.
func (p *planner) colRef(sc *scope, name string, t *Table, pos int) ccol {
	slot, ok := sc.slot(name)
	if !ok {
		panic("engine: internal: alias " + name + " has no slot")
	}
	return ccol{table: name, pos: pos, slot: slot, col: &p.snap.stateOf(t).cols[pos]}
}

// conjunct is one ANDed term of a WHERE clause during planning: a
// term of the statement (expr), or a set test the planner derived from
// a plan-time resolution (set, resolve.go; expr is then nil).
type conjunct struct {
	expr     sqlast.Expr
	set      *setTest
	localRef map[string]bool // local FROM names it references
	// sc is the scope the term's names resolve in: the select's, or for
	// a member of an unnested EXISTS (unnest.go) the scope of that
	// sub-select's FROM, whose parent chain is the statement's own.
	sc *scope
	// group is the unnested EXISTS the term came from, nil for a term of
	// the select's own WHERE; orig is the statement's own node where expr
	// is a copy with renamed aliases (nil otherwise).
	group *unnestGroup
	orig  sqlast.Expr
	// done marks a conjunct that needs no (further) placement: attached
	// to a step, omitted on synopsis proof, or consumed by a resolution.
	done bool
}

// planSelect compiles a SELECT. The outer scope carries tables of
// enclosing queries for correlated subselects.
func (p *planner) planSelect(sel *sqlast.Select, outer *scope) (*selectPlan, error) {
	plan := &selectPlan{distinct: sel.Distinct}
	if outer != nil {
		plan.source = sel
	}
	sc := newScope(outer)
	local := map[string]*Table{}
	var localOrder []string
	for _, ref := range sel.From {
		t := p.snap.table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", ref.Table)
		}
		if p.touched != nil {
			p.touched[t] = true
		}
		if err := sc.add(ref.Name(), t, p.newSlot()); err != nil {
			return nil, err
		}
		local[ref.Name()] = t
		localOrder = append(localOrder, ref.Name())
	}

	// Projection.
	if len(sel.Cols) == 1 {
		if _, ok := sel.Cols[0].Expr.(*sqlast.CountStar); ok {
			plan.countStar = true
			plan.colNames = []string{"COUNT(*)"}
		}
	}
	if !plan.countStar {
		for _, c := range sel.Cols {
			ce, err := p.compile(c.Expr, sc)
			if err != nil {
				return nil, err
			}
			plan.cols = append(plan.cols, ce)
			name := c.Alias
			if name == "" {
				name = c.Expr.String()
			}
			plan.colNames = append(plan.colNames, name)
		}
	}

	// ORDER BY. Like the projection it compiles against the select's own
	// FROM, before any EXISTS is unnested into it: neither may read an
	// existential alias.
	for _, k := range sel.OrderBy {
		ce, err := p.compile(k.Expr, sc)
		if err != nil {
			return nil, err
		}
		plan.orderBy = append(plan.orderBy, corder{x: ce, desc: k.Desc})
	}

	// Flatten WHERE into conjuncts and find their local references.
	var conjuncts []*conjunct
	for _, e := range flattenAnd(sel.Where, nil) {
		conjuncts = append(conjuncts, &conjunct{expr: e, localRef: p.localRefs(e, local), sc: sc})
	}

	// Unnest the positive EXISTS conjuncts of a top-level SELECT DISTINCT
	// into existential aliases of this select (unnest.go).
	if outer == nil && sel.Distinct && !plan.countStar && len(localOrder) > 0 {
		conjuncts, localOrder = p.unnestExists(plan, sel, conjuncts, local, localOrder)
	}

	// Plan-time resolution of dimension joins (resolve.go): aliases
	// whose join and filters reduce to a key set leave the FROM list the
	// join-order search sees, and their fact tables gain set tests.
	plan.fromOrder = append([]string(nil), localOrder...)
	conjuncts, localOrder = p.resolveDimensions(plan, sel, local, localOrder, conjuncts)

	// §4.5-style filter omission beyond schema proofs: drop
	// single-table conjuncts the pinned synopsis proves true for every
	// row, before access-path and join-order selection see them (an
	// index probe for a tautological predicate would justify an access
	// path plancheck could no longer tie to a retained filter). Each
	// omission is recorded with its synopsis evidence on the step it
	// would have filtered.
	omittedBy := map[string][]omittedFilter{}
	for _, c := range conjuncts {
		if c.done || c.set != nil || len(c.localRef) != 1 {
			continue
		}
		var name string
		for n := range c.localRef {
			name = n
		}
		t := local[name]
		if !refsOnlyTable(c.expr, name, t) {
			continue
		}
		of, ok := p.proveRedundant(c.expr, name, t, p.snap.stateOf(t), c.sc)
		if !ok {
			continue
		}
		ce, err := p.compile(c.expr, c.sc)
		if err != nil {
			continue
		}
		c.note(ce)
		of.ce = ce
		omittedBy[name] = append(omittedBy[name], of)
		c.done = true
	}

	// Join ordering: exhaustive dynamic programming over join orders
	// for small FROM lists (Selinger-style, cumulative-rows cost),
	// greedy fallback beyond that.
	order, method := p.chooseJoinOrder(plan, localOrder, local, conjuncts)
	plan.joinMethod = method
	// estimate gives a step's access path and cardinality estimates at
	// its join position. No conjunct that reads the alias is placed
	// before the alias is bound, so the answer does not depend on how far
	// the attachment below has come.
	type stepEstimate struct {
		access          accessPath
		estAccess, rows float64
		source          string
	}
	estimate := func(name string, bound map[string]bool) stepEstimate {
		st := p.snap.stateOf(local[name])
		access, _, accessSrc := p.bestAccess(name, local[name], conjuncts, bound)
		accessEst, synAccess := p.accessEstimate(access, st)
		selOwn, synSel := p.tableSelectivity(name, local[name], st, conjuncts, access, accessSrc)
		e := stepEstimate{access: access, estAccess: accessEst, rows: accessEst * selOwn, source: EstDefault}
		if synAccess || synSel {
			e.source = EstSynopsis
		}
		return e
	}
	// runStart is where the trailing run of existential aliases begins
	// (len(order) without one). Those steps are semi-join filters of the
	// bindings before them. While the run is estimated to offer a binding
	// fewer than deferSubplanFanout candidates, a conjunct that opens a
	// correlated subplan and is bound before the run waits for the run's
	// last step: a binding the run rejects then never opens the subplan —
	// as it did not while the run was itself a subplan among the
	// conjunct's neighbours, ordered by cost class — and one it accepts
	// opens it once. A run with more candidates would evaluate the
	// (uncached) subplan once for each while the conjunct is false, so
	// there it stays on the step that binds it.
	runStart := len(order)
	for runStart > 1 && plan.existential(order[runStart-1]) {
		runStart--
	}
	deferSubplans := false
	if runStart < len(order) {
		bound, fan := map[string]bool{}, 1.0
		for i, name := range order {
			if i >= runStart {
				fan *= estimate(name, bound).rows
			}
			bound[name] = true
		}
		deferSubplans = fan < deferSubplanFanout
	}
	bound := map[string]bool{}
	for i, name := range order {
		// What the estimate peeks at is the step's; a subselect planned
		// inside a key expression keeps its own.
		outerPeeked := p.peeked
		p.peeked = nil
		e := estimate(name, bound)
		bound[name] = true
		step := &joinStep{name: name, slot: plan.slotOf(sc, name), table: local[name], st: p.snap.stateOf(local[name]), access: e.access, existential: plan.existential(name)}
		step.estPeeked, p.peeked = p.peeked, outerPeeked
		step.omitted = omittedBy[name]
		// Record the step's cardinality estimate and its provenance for
		// EXPLAIN and plancheck.
		step.estAccess, step.estRows, step.estSource = e.estAccess, e.rows, e.source
		// Attach every not-yet-attached conjunct whose local references
		// are now fully bound.
		for _, c := range conjuncts {
			if c.done {
				continue
			}
			ready := true
			uses := false
			for ref := range c.localRef {
				if !bound[ref] {
					ready = false
					break
				}
				if ref == name {
					uses = true
				}
			}
			if !ready {
				continue
			}
			if deferSubplans && i < runStart && len(c.localRef) > 0 && c.set == nil && hasSubselect(c.expr) {
				continue
			}
			if len(c.localRef) == 0 || uses || len(plan.steps) == 0 {
				ce, err := p.compileConjunct(c)
				if err != nil {
					return nil, err
				}
				if len(c.localRef) == 0 {
					plan.preFilters = append(plan.preFilters, ce)
				} else {
					step.filters = append(step.filters, ce)
				}
				c.done = true
			}
		}
		plan.steps = append(plan.steps, step)
	}
	// Any conjunct not attached yet (references only earlier tables but
	// was skipped because 'uses' was false) attaches to the last step.
	for _, c := range conjuncts {
		if c.done {
			continue
		}
		ce, err := p.compileConjunct(c)
		if err != nil {
			return nil, err
		}
		if len(plan.steps) == 0 {
			plan.preFilters = append(plan.preFilters, ce)
		} else {
			last := plan.steps[len(plan.steps)-1]
			last.filters = append(last.filters, ce)
		}
		c.done = true
	}
	for _, s := range plan.steps {
		s.orderFilters()
	}

	if !p.heuristic {
		plan.unique = plan.proveUnique()
		if len(plan.orderBy) == 1 {
			plan.setOrdered(plan.proveOrder(plan.orderBy[0].x, plan.orderBy[0].desc))
		}
	}
	plan.firstFrom = plan.firstMatchRun()
	plan.morsels = outer == nil && plan.worthMorsels()
	return plan, nil
}

// localRefs returns the local FROM names an expression references.
// Unqualified columns resolve through the scope chain; only matches
// in the local table set count as local.
func (p *planner) localRefs(e sqlast.Expr, local map[string]*Table) map[string]bool {
	out := map[string]bool{}
	var walk func(e sqlast.Expr)
	walkSelect := func(s *sqlast.Select) {
		// Names shadowed by the subselect's own FROM are not ours.
		inner := map[string]bool{}
		for _, ref := range s.From {
			inner[ref.Name()] = true
		}
		var ws func(e sqlast.Expr)
		ws = func(e sqlast.Expr) {
			switch x := e.(type) {
			case *sqlast.Col:
				if x.Table != "" && !inner[x.Table] {
					if _, ok := local[x.Table]; ok {
						out[x.Table] = true
					}
				}
			case *sqlast.Binary:
				ws(x.L)
				ws(x.R)
			case *sqlast.Not:
				ws(x.X)
			case *sqlast.Between:
				ws(x.X)
				ws(x.Lo)
				ws(x.Hi)
			case *sqlast.IsNull:
				ws(x.X)
			case *sqlast.Func:
				for _, a := range x.Args {
					ws(a)
				}
			case *sqlast.Exists:
				if x.Select.Where != nil {
					ws(x.Select.Where)
				}
			case *sqlast.Subquery:
				if x.Select.Where != nil {
					ws(x.Select.Where)
				}
			}
		}
		if s.Where != nil {
			ws(s.Where)
		}
	}
	walk = func(e sqlast.Expr) {
		switch x := e.(type) {
		case *sqlast.Col:
			if x.Table != "" {
				if _, ok := local[x.Table]; ok {
					out[x.Table] = true
				}
				return
			}
			// Unqualified: count every local table that has the column.
			for name, t := range local {
				if t.ColIndex(x.Column) >= 0 {
					out[name] = true
				}
			}
		case *sqlast.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlast.Not:
			walk(x.X)
		case *sqlast.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *sqlast.IsNull:
			walk(x.X)
		case *sqlast.Func:
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlast.Exists:
			walkSelect(x.Select)
		case *sqlast.Subquery:
			walkSelect(x.Select)
		}
	}
	walk(e)
	return out
}

// bestAccess finds the cheapest access path for table t (named name)
// given the currently bound tables, comparing synopsis-backed
// estimates (estimate.go). connected reports whether any usable
// conjunct references the table at all — a table without one joins as
// a cross product and is deferred by the caller. src is the conjunct
// that produced the chosen path (nil for the full-scan default) so
// the estimator can avoid double-counting its selectivity.
func (p *planner) bestAccess(name string, t *Table, conjuncts []*conjunct, bound map[string]bool) (access accessPath, connected bool, src *conjunct) {
	st := p.snap.stateOf(t)
	restrict := buildScope(name, st, conjuncts)
	var best accessPath = fullScan{}
	bestEst, _ := p.accessEstimate(best, st)
	consider := func(a accessPath, c *conjunct) {
		if a == nil {
			return
		}
		e, _ := p.accessEstimate(a, st)
		if e < bestEst || (e == bestEst && a.rank() < best.rank()) {
			best, bestEst, src = a, e, c
		}
	}
	for _, c := range conjuncts {
		if c.done || !c.localRef[name] {
			continue
		}
		// All other local references must already be bound.
		usable := true
		for ref := range c.localRef {
			if ref != name && !bound[ref] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		connected = true
		if c.set != nil {
			if c.set.probe != nil && c.set.probe.ix != nil {
				consider(c.set.probe, c)
			}
			continue
		}
		switch x := c.expr.(type) {
		case *sqlast.Binary:
			consider(p.accessFromBinary(name, t, x, c.sc, restrict), c)
		case *sqlast.Between:
			consider(p.accessFromBetween(name, t, x, c.sc, restrict), c)
		}
	}
	return best, connected, src
}

// buildScope picks the key test a hash join on the alias builds over,
// and a Dewey step of the alias runs over: of the alias's key tests the
// one that admits the fewest rows, and only if they are fewer than the
// table's. nil: such an access reads every row.
func buildScope(name string, st *tableState, conjuncts []*conjunct) *keyProbe {
	var best *keyProbe
	for _, c := range conjuncts {
		if c.done || c.set == nil || c.set.probe == nil || c.set.probe.res.fact != name {
			continue
		}
		if kp := c.set.probe; kp.rows < float64(st.n) && (best == nil || kp.rows < best.rows) {
			best = kp
		}
	}
	return best
}

// builtOver returns the key test whose rows an access reads — a hash
// join builds over, a Dewey step runs over — nil for every other
// access.
func builtOver(a accessPath) *keyProbe {
	switch x := a.(type) {
	case *hashEq:
		return x.restrict
	case *fatHash:
		return x.h.restrict
	case *indexPrefixes:
		return x.restrict
	case *indexRange:
		return x.restrict
	}
	return nil
}

// compileConjunct compiles one conjunct for attachment to a step.
func (p *planner) compileConjunct(c *conjunct) (cexpr, error) {
	if c.set != nil {
		return c.set.compiled(), nil
	}
	ce, err := p.compile(c.expr, c.sc)
	if err != nil {
		return nil, err
	}
	c.note(ce)
	return ce, nil
}

// Filter cost classes, cheapest first: a step's residual conjuncts run
// in this order (stable within a class), decided once at plan time, so
// a row a map lookup or a comparison rejects never reaches a regular
// expression, and a row either rejects never opens a subplan.
const (
	filterSetTest = iota // plan-time key or pair set membership
	filterCompare        // comparisons, arithmetic, IS NULL over bound columns
	filterCall           // anything calling a function
	filterSubplan        // anything evaluating a correlated subplan
)

// filterClass is the most expensive class among an expression's nodes.
func filterClass(e cexpr) int {
	switch x := e.(type) {
	case *ckeyin, *cpairin:
		return filterSetTest
	case *cbin:
		return maxInt(filterClass(x.l), filterClass(x.r))
	case *cnot:
		return filterClass(x.x)
	case *cbetween:
		return maxInt(filterClass(x.x), maxInt(filterClass(x.lo), filterClass(x.hi)))
	case *cisnull:
		return filterClass(x.x)
	case *cfunc:
		class := filterCall
		for _, a := range x.args {
			class = maxInt(class, filterClass(a))
		}
		return class
	case *cexists, *csubq:
		return filterSubplan
	}
	return filterCompare
}

// orderFilters stable-sorts the step's residual conjuncts by cost
// class.
func (s *joinStep) orderFilters() {
	slices.SortStableFunc(s.filters, func(a, b cexpr) int { return filterClass(a) - filterClass(b) })
}

// colOf returns the column position if e is a column of the table
// named name, else -1.
func (p *planner) colOf(e sqlast.Expr, name string, t *Table, sc *scope) int {
	c, ok := e.(*sqlast.Col)
	if !ok {
		return -1
	}
	tn, _, pos, err := sc.resolve(c)
	if err != nil || tn != name {
		return -1
	}
	return pos
}

// concatColOf matches 'col || const' where col belongs to the table.
func (p *planner) concatColOf(e sqlast.Expr, name string, t *Table, sc *scope) int {
	b, ok := e.(*sqlast.Binary)
	if !ok || b.Op != sqlast.OpConcat {
		return -1
	}
	if _, lit := b.R.(*sqlast.BytesLit); !lit {
		return -1
	}
	return p.colOf(b.L, name, t, sc)
}

// free reports whether the expression references the given table at
// all (directly); used to ensure key expressions don't depend on the
// table being accessed.
func (p *planner) freeOf(e sqlast.Expr, name string, t *Table) bool {
	refs := p.localRefs(e, map[string]*Table{name: t})
	return !refs[name]
}

func (p *planner) accessFromBinary(name string, t *Table, b *sqlast.Binary, sc *scope, restrict *keyProbe) accessPath {
	switch b.Op {
	case sqlast.OpEq:
		if a := p.eqAccess(name, t, b.L, b.R, sc, restrict); a != nil {
			return a
		}
		return p.eqAccess(name, t, b.R, b.L, sc, restrict)
	case sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		// Normalize to 'colSide OP otherSide'.
		if a := p.rangeAccess(name, t, b.L, b.Op, b.R, sc); a != nil {
			return a
		}
		return p.rangeAccess(name, t, b.R, flipOp(b.Op), b.L, sc)
	}
	return nil
}

func flipOp(op sqlast.BinOp) sqlast.BinOp {
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

// eqAccess builds an equality access on colSide = keySide; a hash join
// builds over the rows restrict admits (buildScope), nil: every row.
func (p *planner) eqAccess(name string, t *Table, colSide, keySide sqlast.Expr, sc *scope, restrict *keyProbe) accessPath {
	col := p.colOf(colSide, name, t, sc)
	if col < 0 || !p.freeOf(keySide, name, t) {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, keySide, sc) {
		return nil
	}
	key, err := p.compile(keySide, sc)
	if err != nil {
		return nil
	}
	st := p.snap.stateOf(t)
	if ix := st.findIndex(col); ix != nil && len(ix.Cols) == 1 {
		return &indexEq{ix: ix, keys: []cexpr{key}}
	}
	h := &hashEq{col: col, key: key, restrict: restrict}
	// A hash join on a low-cardinality column degenerates to a scan;
	// rank it accordingly so selective paths win. The decision reads
	// the synopsis's distinct count instead of building the hash index
	// at plan time (the two agree exactly below the histogram cap), over
	// the rows the build holds.
	held := int64(st.n)
	if restrict != nil {
		held = int64(restrict.rows)
	}
	if held > 64 {
		if d := st.syn.Col(col).Distinct(); d > 0 && held/d > 16 {
			return &fatHash{h: h}
		}
	}
	return h
}

// rangeAccess builds a one-sided index range from 'colExpr op bound'.
// colExpr may be a plain column or 'col || const' (the Dewey
// descendant-limit pattern); in the concat case only upper bounds are
// implied (v||k < b implies v < b).
func (p *planner) rangeAccess(name string, t *Table, colSide sqlast.Expr, op sqlast.BinOp, boundSide sqlast.Expr, sc *scope) accessPath {
	if !p.freeOf(boundSide, name, t) {
		return nil
	}
	col := p.colOf(colSide, name, t, sc)
	concat := false
	if col < 0 {
		col = p.concatColOf(colSide, name, t, sc)
		if col < 0 {
			return nil
		}
		concat = true
	}
	ix := p.snap.stateOf(t).findIndex(col)
	if ix == nil {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, boundSide, sc) {
		return nil
	}
	key, err := p.compile(boundSide, sc)
	if err != nil {
		return nil
	}
	if concat {
		// v || k OP bound: only '<' / '<=' imply a bound on v (v < bound).
		if op == sqlast.OpLt || op == sqlast.OpLe {
			return &indexRange{ix: ix, hi: key, hiStrict: true}
		}
		return nil
	}
	switch op {
	case sqlast.OpGt:
		return &indexRange{ix: ix, lo: key, loStrict: true}
	case sqlast.OpGe:
		return &indexRange{ix: ix, lo: key}
	case sqlast.OpLt:
		return &indexRange{ix: ix, hi: key, hiStrict: true}
	case sqlast.OpLe:
		return &indexRange{ix: ix, hi: key}
	}
	return nil
}

// accessFromBetween builds a range access from a BETWEEN conjunct; a
// Dewey step (the ancestor shape, a prefix window) runs over the rows
// restrict admits (buildScope), nil: over the index.
func (p *planner) accessFromBetween(name string, t *Table, b *sqlast.Between, sc *scope, restrict *keyProbe) accessPath {
	col := p.colOf(b.X, name, t, sc)
	if col < 0 {
		// Ancestor shape: 'X BETWEEN t.col AND t.col || const' with X
		// bound — t.col must be a prefix of X's value.
		loCol := p.colOf(b.Lo, name, t, sc)
		hiCol := p.concatColOf(b.Hi, name, t, sc)
		if loCol >= 0 && loCol == hiCol && p.freeOf(b.X, name, t) && t.Cols[loCol].Type == TBytes {
			if k, ok := p.staticKind(b.X, sc); ok && k == KBytes {
				if ix := p.snap.stateOf(t).findIndex(loCol); ix != nil {
					if x, err := p.compile(b.X, sc); err == nil {
						return &indexPrefixes{ix: ix, x: x, restrict: restrict}
					}
				}
			}
		}
		return nil
	}
	if !p.freeOf(b.Lo, name, t) || !p.freeOf(b.Hi, name, t) {
		return nil
	}
	ix := p.snap.stateOf(t).findIndex(col)
	if ix == nil {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, b.Lo, sc) || !p.typesMatch(t.Cols[col].Type, b.Hi, sc) {
		return nil
	}
	lo, err := p.compile(b.Lo, sc)
	if err != nil {
		return nil
	}
	hi, err := p.compile(b.Hi, sc)
	if err != nil {
		return nil
	}
	a := &indexRange{ix: ix, lo: lo, hi: hi, prefix: extendsByLiteral(b.Lo, b.Hi)}
	if a.prefix {
		a.restrict = restrict
	}
	return a
}

// extendsByLiteral reports whether hi is 'lo || <bytes literal>' for a
// column lo — the Table 2 descendant window.
func extendsByLiteral(lo, hi sqlast.Expr) bool {
	c, ok := lo.(*sqlast.Col)
	if !ok {
		return false
	}
	h, ok := hi.(*sqlast.Binary)
	if !ok || h.Op != sqlast.OpConcat {
		return false
	}
	if _, lit := h.R.(*sqlast.BytesLit); !lit {
		return false
	}
	hc, ok := h.L.(*sqlast.Col)
	return ok && *hc == *c
}

// typesMatch reports whether an expression's static type equals the
// column type exactly, so index keys compare without coercion.
func (p *planner) typesMatch(ct Type, e sqlast.Expr, sc *scope) bool {
	k, ok := p.staticKind(e, sc)
	if !ok {
		return false
	}
	switch ct {
	case TInt:
		return k == KInt
	case TText:
		return k == KText
	case TBytes:
		return k == KBytes
	default:
		return false
	}
}

// staticKind infers the runtime kind an expression always produces
// (ignoring NULL, which access paths handle by returning no rows).
func (p *planner) staticKind(e sqlast.Expr, sc *scope) (Kind, bool) {
	switch x := e.(type) {
	case *sqlast.Col:
		_, t, pos, err := sc.resolve(x)
		if err != nil {
			return 0, false
		}
		switch t.Cols[pos].Type {
		case TInt:
			return KInt, true
		case TFloat:
			return KFloat, true
		case TText:
			return KText, true
		case TBytes:
			return KBytes, true
		}
	case *sqlast.IntLit:
		return KInt, true
	case *sqlast.StrLit:
		return KText, true
	case *sqlast.BytesLit:
		return KBytes, true
	case *sqlast.Param:
		return paramKind(x.Kind), true
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpConcat:
			lk, lok := p.staticKind(x.L, sc)
			rk, rok := p.staticKind(x.R, sc)
			if !lok || !rok {
				return 0, false
			}
			if lk == KBytes || rk == KBytes {
				return KBytes, true
			}
			return KText, true
		case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpMod:
			// Integer arithmetic stays integer (see Arith), so bounds
			// like 'v.pre + v.size' remain index-usable.
			lk, lok := p.staticKind(x.L, sc)
			rk, rok := p.staticKind(x.R, sc)
			if lok && rok && lk == KInt && rk == KInt {
				return KInt, true
			}
		}
	}
	return 0, false
}

// compile translates an AST expression to a compiled one.
func (p *planner) compile(e sqlast.Expr, sc *scope) (cexpr, error) {
	switch x := e.(type) {
	case *sqlast.Col:
		name, t, pos, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		c := p.colRef(sc, name, t, pos)
		return &c, nil
	case *sqlast.IntLit:
		return &clit{v: NewInt(x.Value)}, nil
	case *sqlast.FloatLit:
		return &clit{v: NewFloat(x.Value)}, nil
	case *sqlast.StrLit:
		return &clit{v: NewText(x.Value)}, nil
	case *sqlast.BytesLit:
		return &clit{v: NewBytes(x.Value)}, nil
	case *sqlast.NullLit:
		return &clit{v: Null}, nil
	case *sqlast.Param:
		kind := paramKind(x.Kind)
		if x.Slot < 0 || x.Slot >= len(p.args) || p.args[x.Slot].Kind != kind {
			return nil, fmt.Errorf("engine: no value of its kind is bound to parameter %s", x)
		}
		for len(p.params) <= x.Slot {
			p.params = append(p.params, KNull)
		}
		p.params[x.Slot] = kind
		return &cparam{slot: x.Slot, kind: x.Kind}, nil
	case *sqlast.Binary:
		l, err := p.compile(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := p.compile(x.R, sc)
		if err != nil {
			return nil, err
		}
		return &cbin{op: x.Op, l: l, r: r}, nil
	case *sqlast.Not:
		inner, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		return &cnot{x: inner}, nil
	case *sqlast.Between:
		cx, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		lo, err := p.compile(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := p.compile(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		return &cbetween{x: cx, lo: lo, hi: hi}, nil
	case *sqlast.IsNull:
		inner, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		return &cisnull{x: inner, negate: x.Negate}, nil
	case *sqlast.Func:
		name := strings.ToUpper(x.Name)
		want := map[string]int{"REGEXP_LIKE": 2, "LENGTH": 1, "LOWER": 1, "UPPER": 1, "ABS": 1, "SUBSTR": 2}
		n, known := want[name]
		if !known {
			return nil, fmt.Errorf("engine: unknown function %q", x.Name)
		}
		if len(x.Args) != n {
			return nil, fmt.Errorf("engine: %s takes %d argument(s)", name, n)
		}
		cf := &cfunc{name: name}
		for _, a := range x.Args {
			ca, err := p.compile(a, sc)
			if err != nil {
				return nil, err
			}
			cf.args = append(cf.args, ca)
		}
		if name == "REGEXP_LIKE" {
			if lit, ok := x.Args[1].(*sqlast.StrLit); ok {
				m, err := compilePattern(lit.Value)
				if err != nil {
					return nil, err
				}
				cf.re = m
			}
		}
		return cf, nil
	case *sqlast.Exists:
		sub, err := p.planSelect(x.Select, sc)
		if err != nil {
			return nil, err
		}
		return &cexists{plan: sub, negate: x.Negate}, nil
	case *sqlast.Subquery:
		sub, err := p.planSelect(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if !sub.countStar && len(sub.cols) != 1 {
			return nil, fmt.Errorf("engine: scalar subquery must project one column")
		}
		return &csubq{plan: sub}, nil
	case *sqlast.CountStar:
		return nil, fmt.Errorf("engine: COUNT(*) is only allowed as the sole projection of a subquery")
	}
	return nil, fmt.Errorf("engine: cannot compile %T", e)
}

// Explain renders the statement's physical operator tree (one line
// per operator, correlated subplans nested) for diagnostics and
// tests. The statement is planned through the plan cache but not
// executed; EXPLAIN ANALYZE (explain.go) runs it and annotates each
// operator with its OpStats.
func (db *DB) Explain(st sqlast.Statement) (string, error) { return db.explain(nil, nil, st, nil) }

func (db *DB) explain(ctx context.Context, ac *accountant, st sqlast.Statement, args []Value) (string, error) {
	key, cs, err := db.compile(ctx, ac, st, args)
	if err != nil {
		return "", err
	}
	return explainText(cs, key, nil)
}

// JoinSteps returns, for tests and experiment reports, the number of
// FROM tables in each SELECT of the statement (the paper's join-count
// metric: tables minus one per SELECT, plus subselect joins).
func JoinSteps(st sqlast.Statement) int {
	n := 0
	var countSelect func(s *sqlast.Select)
	countSelect = func(s *sqlast.Select) {
		n += len(s.From)
		eachSubselect(s.Where, countSelect)
	}
	switch s := st.(type) {
	case *sqlast.Select:
		countSelect(s)
	case *sqlast.Union:
		for _, sel := range s.Selects {
			countSelect(sel)
		}
	}
	return n
}

// MaxBranchJoins returns the largest per-SELECT join count of the
// statement: for a UNION it is the widest branch (each counted with
// its subselect joins), for a plain SELECT it equals JoinSteps. This
// is the metric behind the paper's SQL-splitting argument — splitting
// a query into UNION branches trades statement count for shorter join
// chains, so branches are compared individually.
func MaxBranchJoins(st sqlast.Statement) int {
	switch s := st.(type) {
	case *sqlast.Union:
		m := 0
		for _, sel := range s.Selects {
			if n := JoinSteps(sel); n > m {
				m = n
			}
		}
		return m
	default:
		return JoinSteps(st)
	}
}
