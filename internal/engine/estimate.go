package engine

import (
	"math"

	"repro/internal/sqlast"
	"repro/internal/synopsis"
)

// The estimator: every cardinality and selectivity number the planner
// uses is derived here, from the snapshot's per-table synopsis when it
// can justify one and from the named defaults below when it cannot.
// Each estimate carries its provenance ("synopsis" or "default"),
// recorded on the plan steps and exported through the plan shape so
// plancheck can discharge the estimate-provenance obligation. This file
// is the only place in the planner allowed to hold raw fractional
// selectivity constants (enforced by the statflow analyzer,
// internal/analysis/statflow.go).

// defaultFilterSelectivity is the fallback fraction of rows a single
// filtering conjunct keeps when the synopsis cannot estimate it — the
// classic System R guess, previously hard-coded in joinorder.go as
// "each filter keeps a tenth". The synopsis overrides it whenever the
// conjunct compares a column against literals the histogram covers.
const defaultFilterSelectivity = 0.1

// minSelectivity floors a table's combined filter selectivity so a
// pile of defaulted conjuncts cannot drive an estimate to zero.
const minSelectivity = 1e-4

// defaultDeweyFanout is the rows a Dewey prefix access is guessed to
// yield per binding, in both directions: the ancestor step of
// indexPrefixes (the rows whose position is a byte prefix of the bound
// one) and the descendant window '[x, x || lit]' of a prefix-shaped
// indexRange. One constant serves both because of a counting identity:
// every (ancestor, descendant) pair of a relation is one row of some
// ancestor access and one row of some descendant access, so over the
// relation's rows the two accesses have the same mean size, pairs per
// row. Across two relations the means differ by the ratio of their row
// counts; the guess is not scaled by it (E10 has the numbers). The
// value is the pre-synopsis planner's guess for indexPrefixes, kept;
// the window used to be costed as a generic two-sided range
// (genericRangeDivisor), three orders of magnitude more on a
// schema-oblivious relation, which sent every join order that could
// avoid the window around it (EXPERIMENTS.md E10). A step that runs
// over a key set's rows (deweyRun) is guessed the set's share of it, by
// the hash join's independence rule.
const defaultDeweyFanout = 8

// genericRangeDivisor and openRangeDivisor are the fallback guesses
// for an index range whose bounds are not literals the histogram can
// count: a sixteenth of the relation between two bounds, a quarter
// past one.
const (
	genericRangeDivisor = 16
	openRangeDivisor    = 4
)

// forfeitRowCost is what the join-order search charges, per estimated
// output row, an order whose driving alias forfeits the proof of
// duplicate-freeness the result alias would give the plan (implied.go):
// the row then passes through the distinct set and, the order proof
// going with it, the sort, where it would have passed through neither.
// The unit is the search's own, one row bound by a join step.
const forfeitRowCost = 4

// deferSubplanFanout bounds the trailing first-match run a conjunct that
// opens a correlated subplan may wait for (planSelect): one estimated to
// offer each binding of the steps before it fewer than this many
// candidates. Waiting spares the bindings the run rejects their subplan;
// it costs one more evaluation for every further candidate of a binding
// whose subplan conjunct is false. The bound is the second whole
// candidate, not 1: an index probe's estimate is its column's average
// posting length, floored at 1 and divided by a sketched distinct count,
// so a run of exactly one candidate reads 1.0004.
const deferSubplanFanout = 2

// Estimate provenance values recorded in joinStep.estSource and
// exported as StepShape.EstSource.
const (
	// EstSynopsis marks an estimate derived from the snapshot's data:
	// its synopsis, index statistics pinned by the same snapshot, or
	// the distinct values of the build a value join over a key set's
	// rows probes (accessEstimate).
	EstSynopsis = "synopsis"
	// EstDefault marks an estimate from the named default constants.
	EstDefault = "default"
)

// tableSelectivity derives the fraction of the table's rows surviving
// its own single-table conjuncts, skipping what the chosen access path
// already absorbed — the conjunct it came from (skip) and the key test
// whose rows a hash join builds over or a Dewey step runs over
// (builtOver): their rows are counted by
// the access estimate, and applying their selectivity again would
// double-count. This replaces the old dynamic-sampling branch: the
// synopsis gives the same numbers the exact evaluation did for literal
// predicates, without touching rows. The second result reports whether
// any factor came from the synopsis.
func (p *planner) tableSelectivity(name string, t *Table, st *tableState, conjuncts []*conjunct, access accessPath, skip *conjunct) (float64, bool) {
	sel, synBacked := 1.0, false
	over := builtOver(access)
	for _, c := range conjuncts {
		if c == skip || c.done || len(c.localRef) != 1 || !c.localRef[name] {
			continue
		}
		if c.set != nil {
			if over != nil && c.set.probe == over {
				continue
			}
			// A key test's selectivity was read off the histogram when
			// the set was resolved; a pair test over one table has none.
			switch rows := float64(st.syn.Rows()); {
			case c.set.probe == nil:
				sel *= defaultFilterSelectivity
			case rows > 0:
				sel *= c.set.probe.rows / rows
				synBacked = true
			}
			continue
		}
		if !refsOnlyTable(c.expr, name, t) {
			continue
		}
		s, syn := p.conjunctSelectivity(c.expr, name, t, st, c.sc)
		sel *= s
		synBacked = synBacked || syn
	}
	if sel < minSelectivity {
		sel = minSelectivity
	}
	return sel, synBacked
}

// A parameter slot (sqlast.Param) is a value for estimates and opaque
// for facts. estValue and estKey, which the selectivity and access
// estimates read their operands through, answer for a slot with the
// value the compile-triggering call bound to it and note the slot as
// peeked: a statement that only ever binds one value set plans exactly
// as its literal spelling would, and one whose first value was
// unrepresentative keeps the plan that value chose (DESIGN.md §13, "One
// plan per statement"). litOf, which everything that drops,
// pre-evaluates or proves something reads through — proveRedundant,
// and by the same rule resolveDimensions, which takes no conjunct with
// a slot for a dimension's own — does not see a slot as a literal: the
// next call binds another value to the same plan.

// litOf extracts a literal operand's runtime value.
func litOf(e sqlast.Expr) (Value, bool) {
	switch x := e.(type) {
	case *sqlast.IntLit:
		return NewInt(x.Value), true
	case *sqlast.FloatLit:
		return NewFloat(x.Value), true
	case *sqlast.StrLit:
		return NewText(x.Value), true
	case *sqlast.BytesLit:
		return NewBytes(x.Value), true
	}
	return Null, false
}

// estValue is litOf for estimates: it also answers for a parameter
// slot, with the value this compile was given for it.
func (p *planner) estValue(e sqlast.Expr) (Value, bool) {
	if x, ok := e.(*sqlast.Param); ok {
		return p.peek(x.Slot)
	}
	return litOf(e)
}

// estKey is estValue for a compiled key or bound expression.
func (p *planner) estKey(e cexpr) (Value, bool) {
	switch x := e.(type) {
	case *clit:
		return x.v, true
	case *cparam:
		return p.peek(x.slot)
	}
	return Null, false
}

// peek reads a slot's compile-time value for an estimate.
func (p *planner) peek(slot int) (Value, bool) {
	if slot >= len(p.args) {
		return Null, false
	}
	for _, s := range p.peeked {
		if s == slot {
			return p.args[slot], true
		}
	}
	p.peeked = append(p.peeked, slot)
	return p.args[slot], true
}

// synEq estimates rows of the column equal to the literal.
func synEq(c synopsis.Col, v Value) (int64, bool) {
	switch v.Kind {
	case KInt, KBool:
		n, _ := c.EqInt(v.I)
		return n, true
	case KFloat:
		n, _ := c.EqFloat(v.F)
		return n, true
	case KText:
		n, _ := c.EqText(v.S)
		return n, true
	case KBytes:
		n, _ := c.EqBytes(v.B)
		return n, true
	}
	return 0, false
}

// conjunctSelectivity estimates the fraction of the table's rows one
// single-table conjunct keeps, consulting the synopsis for literal
// comparisons; the second result reports whether the synopsis (rather
// than the default) produced the number.
func (p *planner) conjunctSelectivity(e sqlast.Expr, name string, t *Table, st *tableState, sc *scope) (float64, bool) {
	if p.heuristic {
		return defaultFilterSelectivity, false
	}
	syn := st.syn
	rows := float64(syn.Rows())
	if rows == 0 {
		// Empty table: selectivity is moot, and exact.
		return 1, true
	}
	frac := func(n int64) float64 {
		f := float64(n) / rows
		if f > 1 {
			f = 1
		}
		return f
	}
	switch x := e.(type) {
	case *sqlast.Binary:
		col, lit := p.colOf(x.L, name, t, sc), sqlast.Expr(x.R)
		if col < 0 {
			col, lit = p.colOf(x.R, name, t, sc), x.L
		}
		if col < 0 {
			return defaultFilterSelectivity, false
		}
		v, ok := p.estValue(lit)
		if !ok {
			return defaultFilterSelectivity, false
		}
		cs := syn.Col(col)
		switch x.Op {
		case sqlast.OpEq:
			if n, ok := synEq(cs, v); ok {
				return frac(n), true
			}
		case sqlast.OpNe:
			if n, ok := synEq(cs, v); ok {
				return frac(cs.Count() - cs.Nulls() - n), true
			}
		case sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
			if v.Kind != KInt {
				return defaultFilterSelectivity, false
			}
			min, max, ok := cs.IntRange()
			if !ok {
				return defaultFilterSelectivity, false
			}
			lo, hi := min, max
			// Orient the comparison as 'col OP literal'.
			op := x.Op
			if p.colOf(x.L, name, t, sc) < 0 {
				op = flipOp(op)
			}
			switch op {
			case sqlast.OpLt:
				hi = v.I - 1
			case sqlast.OpLe:
				hi = v.I
			case sqlast.OpGt:
				lo = v.I + 1
			case sqlast.OpGe:
				lo = v.I
			}
			n, _ := cs.IntRangeCount(lo, hi)
			return frac(n), true
		}
		return defaultFilterSelectivity, false
	case *sqlast.Between:
		col := p.colOf(x.X, name, t, sc)
		if col < 0 {
			return defaultFilterSelectivity, false
		}
		lo, okL := p.estValue(x.Lo)
		hi, okH := p.estValue(x.Hi)
		if !okL || !okH || lo.Kind != KInt || hi.Kind != KInt {
			return defaultFilterSelectivity, false
		}
		n, _ := syn.Col(col).IntRangeCount(lo.I, hi.I)
		return frac(n), true
	case *sqlast.IsNull:
		col := p.colOf(x.X, name, t, sc)
		if col < 0 {
			return defaultFilterSelectivity, false
		}
		nulls := syn.Col(col).Nulls()
		if x.Negate {
			return frac(syn.Col(col).Count() - nulls), true
		}
		return frac(nulls), true
	case *sqlast.Not:
		inner, syn := p.conjunctSelectivity(x.X, name, t, st, sc)
		return 1 - inner, syn
	}
	return defaultFilterSelectivity, false
}

// accessEstimate estimates the rows an access path yields per binding
// of the already-bound tables, preferring synopsis statistics over the
// access path's own structural heuristic (accessPath.est). Equality
// fan-out comes from the synopsis histogram, except for a value join
// over a key set's rows, whose fan-out is read off the build it probes
// (build); that estimate is data-derived like the synopsis's, and
// carries its provenance.
func (p *planner) accessEstimate(a accessPath, st *tableState) (float64, bool) {
	if p.heuristic {
		return float64(a.est(p, st)), false
	}
	syn := st.syn
	rows := syn.Rows()
	avgFan := func(col int) (float64, bool) {
		c := syn.Col(col)
		d := c.Distinct()
		if d <= 0 {
			return float64(a.est(p, st)), false
		}
		f := float64(c.Count()-c.Nulls()) / float64(d)
		if f < 1 {
			f = 1
		}
		return f, true
	}
	switch x := a.(type) {
	case fullScan:
		return float64(rows), true
	case *indexEq:
		col := x.ix.Cols[0]
		// A literal key is a point estimate straight off the histogram.
		if len(x.keys) == 1 {
			if v, ok := p.estKey(x.keys[0]); ok {
				if n, ok := synEq(syn.Col(col), v); ok {
					return float64(n), true
				}
			}
		}
		return avgFan(col)
	case *hashEq:
		// A build over a key set's rows holds the set's exact share of the
		// table, the join column taken as independent of the key column.
		share := x.restrict.share(rows)
		if v, ok := p.estKey(x.key); ok {
			if n, ok := synEq(syn.Col(x.col), v); ok {
				return float64(n) * share, true
			}
		}
		// A value join over a key set's rows probes the build of those
		// rows, whose values the whole column's distinct count cannot see:
		// an author's name recurs across papers, among titles that never
		// do. The build's mean bucket is what a probe value it holds
		// meets: the rows over their distinct values, which are counted
		// now, without the row ids a candidate the search rejects would
		// never probe, and charged to the compiling statement (build).
		if x.restrict != nil && x.restrict.rows > 0 {
			if n := len(p.build(st, buildKey{col: x.col, in: x.restrict.scope(), distinct: true}).hash); n > 0 {
				return x.restrict.rows / float64(n), true
			}
		}
		e, fromSyn := avgFan(x.col)
		return e * share, fromSyn
	case *fatHash:
		return p.accessEstimate(x.h, st)
	case *keyProbe:
		return x.rows, true
	case *indexRange:
		// Literal integer bounds are a histogram range count.
		loLit, okL := p.intBound(x.lo)
		hiLit, okH := p.intBound(x.hi)
		col := x.ix.Cols[0]
		if min, max, ok := syn.Col(col).IntRange(); ok && (okL || okH) {
			lo, hi := min, max
			if okL {
				lo = loLit
				if x.loStrict {
					lo++
				}
			}
			if okH {
				hi = hiLit
				if x.hiStrict {
					hi--
				}
			}
			n, _ := syn.Col(col).IntRangeCount(lo, hi)
			return float64(n), true
		}
		// A prefix window over a key set's run holds the set's share of
		// its rows, by the same independence rule as the hash join's.
		return float64(a.est(p, st)) * x.restrict.share(rows), false
	case *indexPrefixes:
		return float64(a.est(p, st)) * x.restrict.share(rows), false
	}
	return float64(a.est(p, st)), false
}

// build returns the memo entry k names, made on a miss as the
// executor's buildSide makes a build: charged to the compiling call's
// accountant, with the call's context checked before the walk and after
// it. The first failure, an injected fault, a broken budget or a done
// context, becomes the compile's error (compileStmt), and every entry
// asked for after it is the empty one.
func (p *planner) build(st *tableState, k buildKey) build {
	if p.err == nil && p.ctx != nil {
		p.err = p.ctx.Err()
	}
	if p.err != nil {
		return build{}
	}
	b, _, _, err := st.build(k, p.ac)
	if err == nil && p.ctx != nil {
		err = p.ctx.Err()
	}
	p.err = err
	return b
}

// intBound extracts a compiled integer range bound an estimate can read.
func (p *planner) intBound(e cexpr) (int64, bool) {
	v, ok := p.estKey(e)
	return v.I, ok && v.Kind == KInt
}

// omittedFilter is a residual conjunct the planner dropped because the
// synopsis proves it holds for every row of its table. The compiled
// form is kept only for the exported plan shape (plancheck re-justifies
// the omission from the evidence); it is never executed.
type omittedFilter struct {
	ce     cexpr
	reason string // "not-null", "int-range", "empty-table"
	// Evidence pins the synopsis facts the decision used, re-checked
	// independently by plancheck against the live synopsis.
	rows, nulls int64
	min, max    int64
}

// proveRedundant decides whether the synopsis proves a single-table
// conjunct true for every row of the table — the engine-level
// §4.5-style omission beyond what the schema alone proves. Soundness
// rests on the snapshot protocol: the synopsis facts are exact for the
// pinned state, and any later insert publishes a new state that
// retires the plan (plancache freshness).
func (p *planner) proveRedundant(e sqlast.Expr, name string, t *Table, st *tableState, sc *scope) (omittedFilter, bool) {
	no := omittedFilter{}
	if p.heuristic {
		return no, false
	}
	syn := st.syn
	if syn.Rows() == 0 {
		// An empty pinned state satisfies any predicate vacuously; only
		// worth recording for recognizable single-column forms so the
		// shape stays explainable.
		switch e.(type) {
		case *sqlast.IsNull, *sqlast.Binary, *sqlast.Between:
			return omittedFilter{reason: "empty-table"}, true
		}
		return no, false
	}
	colFacts := func(colExpr sqlast.Expr) (col int, c synopsis.Col, ok bool) {
		col = p.colOf(colExpr, name, t, sc)
		if col < 0 {
			return 0, synopsis.Col{}, false
		}
		return col, syn.Col(col), true
	}
	switch x := e.(type) {
	case *sqlast.IsNull:
		if !x.Negate {
			return no, false
		}
		if _, c, ok := colFacts(x.X); ok && c.Nulls() == 0 {
			return omittedFilter{reason: "not-null", rows: syn.Rows(), nulls: 0}, true
		}
	case *sqlast.Binary:
		col, lit := sqlast.Expr(x.L), sqlast.Expr(x.R)
		op := x.Op
		if p.colOf(col, name, t, sc) < 0 {
			col, lit = x.R, x.L
			op = flipOp(op)
		}
		_, c, ok := colFacts(col)
		if !ok || c.Nulls() != 0 {
			// A NULL makes the comparison non-true for that row, so
			// min/max alone cannot prove the filter redundant.
			return no, false
		}
		v, ok := litOf(lit)
		if !ok || v.Kind != KInt || t.Cols[p.colOf(col, name, t, sc)].Type != TInt {
			return no, false
		}
		min, max, ok := c.IntRange()
		if !ok {
			return no, false
		}
		proved := false
		switch op {
		case sqlast.OpLt:
			proved = max < v.I
		case sqlast.OpLe:
			proved = max <= v.I
		case sqlast.OpGt:
			proved = min > v.I
		case sqlast.OpGe:
			proved = min >= v.I
		}
		if proved {
			return omittedFilter{reason: "int-range", rows: syn.Rows(), min: min, max: max}, true
		}
	case *sqlast.Between:
		colPos := p.colOf(x.X, name, t, sc)
		if colPos < 0 || t.Cols[colPos].Type != TInt {
			return no, false
		}
		c := syn.Col(colPos)
		if c.Nulls() != 0 {
			return no, false
		}
		lo, okL := litOf(x.Lo)
		hi, okH := litOf(x.Hi)
		if !okL || !okH || lo.Kind != KInt || hi.Kind != KInt {
			return no, false
		}
		min, max, ok := c.IntRange()
		if ok && lo.I <= min && max <= hi.I {
			return omittedFilter{reason: "int-range", rows: syn.Rows(), min: min, max: max}, true
		}
	}
	return no, false
}

// qError is the symmetric ratio error between an estimated and an
// observed cardinality, floored at one row each (the standard q-error
// metric; 1.0 is a perfect estimate).
func qError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return math.Inf(1)
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}
