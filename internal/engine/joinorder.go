package engine

import (
	"math"

	"repro/internal/sqlast"
	"repro/internal/synopsis"
)

// maxDPTables bounds the exhaustive join-order search (2^n states).
const maxDPTables = 10

// Bounds on plan-time resolution (resolve.go), which runs a
// dimension's conjuncts over all its rows while a statement compiles.
const (
	// maxResolveRows is the largest dimension resolved at plan time. It
	// is the synopsis's exact-histogram capacity: a fact column that
	// references a larger dimension can hold more distinct keys than
	// the histogram counts exactly, and the rewrite's estimate — a sum
	// of histogram counts — would stop being exact.
	maxResolveRows = synopsis.HistCap
	// maxResolvePairs caps the key-set product a pair conjunct is
	// evaluated over (a few milliseconds of matching at the cap).
	maxResolvePairs = 1 << 16
	// maxResolveMemo bounds each memo of a table state: its builds and
	// its resolved sets (memo.go).
	maxResolveMemo = 64
)

// chooseJoinOrder picks the binding order of the FROM tables. For up
// to maxDPTables it runs a Selinger-style dynamic program over table
// subsets minimizing the sum of estimated intermediate result sizes;
// beyond that it falls back to a greedy minimum-fanout order. Both
// use per-step access-path estimates scaled by single-table filter
// selectivities from the estimator (estimate.go) — synopsis-backed
// when the snapshot's statistics cover the predicate, the named
// defaults otherwise — with a heavy penalty for cross products.
//
// One term keeps the sum honest where an unnested EXISTS (unnest.go) lets
// the search do what the statement's nesting could not: an order driven
// by an existential alias, where the result alias driving would prove
// the rows duplicate-free (implied.go), is charged the dedup, and the
// sort that goes with it, its output then needs — forfeitRowCost per
// estimated output row. The orders the select's own aliases drive were
// open to the search before the rewrite and are priced as they were.
// Without statistics (planner.heuristic) there is no ground to take a
// predicate for selective: existential aliases then stay behind the
// select's own, the order the nesting evaluated them in.
//
// The returned method name ("single", "dp", "greedy") is recorded on
// the plan for the exported shape (plantrace.go).
func (p *planner) chooseJoinOrder(plan *selectPlan, names []string, local map[string]*Table, conjuncts []*conjunct) ([]string, string) {
	n := len(names)
	if n <= 1 {
		return names, "single"
	}
	// fanout estimates one step's multiplier given the bound set.
	fanout := func(name string, bound map[string]bool, atStart bool) float64 {
		t := local[name]
		st := p.snap.stateOf(t)
		access, connected, src := p.bestAccess(name, t, conjuncts, bound)
		e, _ := p.accessEstimate(access, st)
		sel, _ := p.tableSelectivity(name, t, st, conjuncts, access, src)
		e *= sel
		if kp, ok := access.(*keyProbe); ok && len(kp.res.keys.keys) == 0 {
			// An empty key set is not an estimate: the step yields no
			// row, and bound first it spares every other step its scan.
			return 0
		}
		if e < 1 {
			e = 1
		}
		if !connected && !atStart {
			e *= 4096
		}
		return e
	}

	// mayBind holds an existential alias back, under planner.heuristic,
	// until the select's own aliases are bound.
	mayBind := func(name string, bound map[string]bool) bool {
		if !p.heuristic || !plan.existential(name) {
			return true
		}
		for _, other := range names {
			if !bound[other] && !plan.existential(other) {
				return false
			}
		}
		return true
	}

	if n > maxDPTables {
		return greedyOrder(names, fanout, mayBind), "greedy"
	}

	// The orders are searched in two layers: those an existential alias
	// drives although another alias would prove the rows duplicate-free
	// (layer 0), which pay for that proof once they are complete, and the
	// rest (layer 1). A state's index is its mask doubled plus its layer;
	// without a proving alias nothing is forfeited and layer 1 is empty.
	prover := p.provingAlias(plan, names, local)
	type state struct {
		cost float64 // sum of intermediate sizes
		rows float64 // estimated rows after binding the subset
		last int     // last table bound (to reconstruct)
		prev int     // previous state
	}
	size := 1 << n
	dp := make([]state, 2*size)
	for i := range dp {
		dp[i] = state{cost: math.Inf(1)}
	}
	dp[0] = state{cost: 0, rows: 1, last: -1, prev: -1}
	boundOf := func(mask int) map[string]bool {
		b := make(map[string]bool, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				b[names[i]] = true
			}
		}
		return b
	}
	for mask := 0; mask < size; mask++ {
		if math.IsInf(dp[2*mask].cost, 1) && math.IsInf(dp[2*mask+1].cost, 1) {
			continue
		}
		bound := boundOf(mask)
		for i := 0; i < n; i++ {
			bit := 1 << i
			if mask&bit != 0 || !mayBind(names[i], bound) {
				continue
			}
			f := fanout(names[i], bound, mask == 0)
			for layer := 0; layer < 2; layer++ {
				from := dp[2*mask+layer]
				if math.IsInf(from.cost, 1) {
					continue
				}
				rows := from.rows * f
				if rows > 1e18 {
					rows = 1e18
				}
				next := 2*(mask|bit) + layer
				if mask == 0 && prover >= 0 && !plan.existential(names[i]) {
					next++
				}
				if cost := from.cost + rows; cost < dp[next].cost {
					dp[next] = state{cost: cost, rows: rows, last: i, prev: 2*mask + layer}
				}
			}
		}
	}
	end := 2*size - 2
	if dp[end+1].cost <= dp[end].cost+dp[end].rows*forfeitRowCost {
		end++
	}
	out := make([]string, 0, n)
	for at := end; at > 1; at = dp[at].prev {
		out = append(out, names[dp[at].last])
	}
	// Reverse into binding order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, "dp"
}

// provingAlias finds the FROM alias that, driving the plan, would prove
// its rows duplicate-free (implied.go), as an index into names; -1 when
// none would. It is the result alias, the one everything projected and
// every ORDER BY key reads, so at most one qualifies.
func (p *planner) provingAlias(plan *selectPlan, names []string, local map[string]*Table) int {
	if p.heuristic {
		return -1
	}
	for i, name := range names {
		if plan.proveUniqueBy(name, p.snap.stateOf(local[name])) != nil {
			return i
		}
	}
	return -1
}

// greedyOrder is the fallback for wide FROM lists: repeatedly bind
// the table with the smallest estimated fanout among those mayBind
// admits.
func greedyOrder(names []string, fanout func(string, map[string]bool, bool) float64, mayBind func(string, map[string]bool) bool) []string {
	bound := map[string]bool{}
	remaining := append([]string(nil), names...)
	var out []string
	for len(remaining) > 0 {
		bestIdx := 0
		best := math.Inf(1)
		for i, name := range remaining {
			if !mayBind(name, bound) {
				continue
			}
			if f := fanout(name, bound, len(out) == 0); f < best {
				best = f
				bestIdx = i
			}
		}
		name := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		bound[name] = true
		out = append(out, name)
	}
	return out
}

// refsOnlyTable reports whether an expression references only columns
// of the given table (no other tables, no subqueries), so the
// estimator can treat it as a single-table filter.
func refsOnlyTable(e sqlast.Expr, name string, t *Table) bool {
	switch x := e.(type) {
	case *sqlast.Col:
		if x.Table != "" {
			return x.Table == name
		}
		return t.ColIndex(x.Column) >= 0
	case *sqlast.IntLit, *sqlast.FloatLit, *sqlast.StrLit, *sqlast.BytesLit, *sqlast.NullLit, *sqlast.Param:
		return true
	case *sqlast.Binary:
		return refsOnlyTable(x.L, name, t) && refsOnlyTable(x.R, name, t)
	case *sqlast.Not:
		return refsOnlyTable(x.X, name, t)
	case *sqlast.Between:
		return refsOnlyTable(x.X, name, t) && refsOnlyTable(x.Lo, name, t) && refsOnlyTable(x.Hi, name, t)
	case *sqlast.IsNull:
		return refsOnlyTable(x.X, name, t)
	case *sqlast.Func:
		for _, a := range x.Args {
			if !refsOnlyTable(a, name, t) {
				return false
			}
		}
		return true
	default:
		// EXISTS / scalar subqueries: never sample.
		return false
	}
}
