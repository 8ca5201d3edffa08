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
	// maxResolveMemo bounds the memoised sets per table state.
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
// The returned method name ("single", "dp", "greedy") is recorded on
// the plan for the exported shape (plantrace.go).
func (p *planner) chooseJoinOrder(names []string, local map[string]*Table, conjuncts []*conjunct, sc *scope) ([]string, string) {
	n := len(names)
	if n <= 1 {
		return names, "single"
	}
	// fanout estimates one step's multiplier given the bound set.
	fanout := func(name string, bound map[string]bool, atStart bool) float64 {
		t := local[name]
		st := p.snap.stateOf(t)
		access, connected, src := p.bestAccess(name, t, conjuncts, bound, sc)
		e, _ := p.accessEstimate(access, st)
		sel, _ := p.tableSelectivity(name, t, st, conjuncts, src, sc)
		e *= sel
		// Observed cardinalities from adaptive re-planning trump the
		// synopsis — they already include join-predicate effects — but
		// only at the join position they were observed in (ovKey.after).
		if len(p.overrides) > 0 && !p.heuristicOnly() {
			if ov, ok := p.overrides[ovKey{name, boundKey(bound)}]; ok {
				e = ov.rows
			}
		}
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

	if n > maxDPTables {
		return p.greedyOrder(names, local, conjuncts, sc, fanout), "greedy"
	}

	type state struct {
		cost float64 // sum of intermediate sizes
		rows float64 // estimated rows after binding the subset
		last int     // last table bound (to reconstruct)
		prev int     // previous mask
	}
	size := 1 << n
	dp := make([]state, size)
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
		if math.IsInf(dp[mask].cost, 1) {
			continue
		}
		bound := boundOf(mask)
		for i := 0; i < n; i++ {
			bit := 1 << i
			if mask&bit != 0 {
				continue
			}
			f := fanout(names[i], bound, mask == 0)
			rows := dp[mask].rows * f
			if rows > 1e18 {
				rows = 1e18
			}
			cost := dp[mask].cost + rows
			next := mask | bit
			if cost < dp[next].cost {
				dp[next] = state{cost: cost, rows: rows, last: i, prev: mask}
			}
		}
	}
	out := make([]string, 0, n)
	for mask := size - 1; mask != 0; mask = dp[mask].prev {
		out = append(out, names[dp[mask].last])
	}
	// Reverse into binding order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, "dp"
}

// greedyOrder is the fallback for wide FROM lists: repeatedly bind
// the table with the smallest estimated fanout.
func (p *planner) greedyOrder(names []string, local map[string]*Table, conjuncts []*conjunct, sc *scope, fanout func(string, map[string]bool, bool) float64) []string {
	bound := map[string]bool{}
	remaining := append([]string(nil), names...)
	var out []string
	for len(remaining) > 0 {
		bestIdx := 0
		best := math.Inf(1)
		for i, name := range remaining {
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
	case *sqlast.IntLit, *sqlast.FloatLit, *sqlast.StrLit, *sqlast.BytesLit, *sqlast.NullLit:
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
