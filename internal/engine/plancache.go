package engine

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// PlanCacheCap bounds the number of cached compiled statements per DB
// (and, one level up, the query shapes a core.Translator keeps).
const PlanCacheCap = 256

// compiledStmt is a fully planned statement (exactly one of sel/union
// is set) plus the snapshot states of every table it was planned
// against.
type compiledStmt struct {
	sel    *selectPlan
	union  *unionPlan
	tables []tableVer
	// nOps is the number of operator nodes lowerStmt assigned across
	// the whole statement (including subplans and union branches): the
	// size of the per-execution stats frame.
	nOps int
	// feedback holds the merged OpStats frame of the most recent
	// successful execution (stored by runCompiledFrame after the frame
	// is finalized), read on the next plan-cache hit to detect
	// mis-estimated plans. Atomic: executions and cache lookups race.
	feedback atomic.Pointer[opFrame]
	// replans counts how many adaptive re-plans led to this plan,
	// bounded by maxAdaptiveReplans so estimation noise cannot cause
	// plan flapping. Written only at compile time.
	replans int
	// observed is what the executions behind those re-plans measured
	// (nil for a first plan). The next re-plan starts from it: a plan
	// that moved a table to a new join position must not forget what
	// the table yielded at the old one, or its successor falls back on
	// the estimate that was already refuted and flips the order back.
	// Written only at compile time.
	observed *planOverrides
	// params are the kinds of the parameter slots the plan reads, by slot
	// (KNull for a slot nothing compiled reads): what every execution's
	// arguments are checked against.
	params []Kind
}

// tableVer pins the state a table had at plan time. States are
// immutable and never reused across versions, so pointer equality
// against the current snapshot is exactly "the table has not been
// mutated since planning".
type tableVer struct {
	t  *Table
	st *tableState
}

// fresh reports whether none of the plan's tables have been mutated
// since planning, judged against the given snapshot.
func (cs *compiledStmt) fresh(snap *dbSnap) bool {
	for _, tv := range cs.tables {
		if snap.stateOf(tv.t) != tv.st {
			return false
		}
	}
	return true
}

// unionPlan is the compiled form of a UNION statement: per-branch
// plans plus the union-level ORDER BY resolved to projected column
// positions.
type unionPlan struct {
	branches  []*selectPlan
	cols      []string
	orderPos  []int
	orderDesc []bool
	// merge: every branch is proven to emit its rows in the union's
	// order (implied.go), so the union merges the branch results by the
	// order key instead of collecting, deduplicating and sorting them.
	merge bool
	phys  *physUnion // union-level operators, set by lowerStmt
}

// ovEst is the observed cardinalities of one alias at one join
// position, injected by adaptive re-planning: rows is the per-binding
// output after the step's residual filters, access the per-binding
// output of its access path (0 = not observed separately).
type ovEst struct {
	rows, access float64
}

// ovKey addresses an observation: the alias, and the join position it
// was observed in (boundKey of the aliases bound before the step). A
// per-binding cardinality is meaningless at any other position — a
// probed table yields ~1 row per binding where a leading scan of the
// same table yields the whole relation — and applying it regardless
// of position makes consecutive re-plans invert the join order and
// chase their own estimates.
type ovKey struct {
	name, after string
}

// boundKey canonicalizes a bound-alias set for ovKey.after matching.
func boundKey(bound map[string]bool) string {
	names := make([]string, 0, len(bound))
	for n := range bound {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// planOverrides carries observed per-alias cardinalities for adaptive
// re-planning: sel for a plain SELECT, branches aligned with a UNION's
// branch order (branch alias spaces are independent, so one flat map
// would cross-contaminate branches that reuse aliases), and subs for
// correlated subselects keyed by their rendered source text (join
// reordering changes the order subselects are compiled in, so a
// positional index would misroute them; identical subqueries share one
// map, which is sound because identical text is identical semantics).
type planOverrides struct {
	sel      map[ovKey]ovEst
	branches []map[ovKey]ovEst
	subs     map[string]map[ovKey]ovEst
}

// compileStmt plans a statement from scratch against one database
// snapshot, recording the pinned states of all tables it touches
// (including correlated-subquery tables). args are the values the
// triggering call binds to the statement's parameter slots, which the
// estimates read (estimate.go); ov, when non-nil, the observed
// cardinalities adaptive re-planning injects into the planner.
func compileStmt(db *DB, st sqlast.Statement, args []Value, ov *planOverrides) (*compiledStmt, error) {
	p := &planner{db: db, snap: db.loadSnap(), touched: map[*Table]bool{}, args: args}
	if ov != nil {
		p.subOverrides = ov.subs
	}
	cs := &compiledStmt{observed: ov}
	switch s := st.(type) {
	case *sqlast.Select:
		if ov != nil {
			p.overrides = ov.sel
		}
		plan, err := p.planSelect(s, nil)
		if err != nil {
			return nil, err
		}
		cs.sel = plan
	case *sqlast.Union:
		u := &unionPlan{}
		for i, branch := range s.Selects {
			p.overrides = nil
			if ov != nil && i < len(ov.branches) {
				p.overrides = ov.branches[i]
			}
			plan, err := p.planSelect(branch, nil)
			if err != nil {
				return nil, err
			}
			if len(u.branches) == 0 {
				u.cols = plan.colNames
				// Resolve union ORDER BY keys to projected column positions.
				for _, k := range s.OrderBy {
					col, ok := k.Expr.(*sqlast.Col)
					if !ok {
						return nil, fmt.Errorf("engine: UNION ORDER BY must reference an output column")
					}
					pos := -1
					for i, name := range plan.colNames {
						if name == col.Column || name == col.String() {
							pos = i
							break
						}
					}
					if pos < 0 {
						return nil, fmt.Errorf("engine: UNION ORDER BY column %q not in output", col)
					}
					u.orderPos = append(u.orderPos, pos)
					u.orderDesc = append(u.orderDesc, k.Desc)
				}
			} else if len(plan.colNames) != len(u.cols) {
				return nil, fmt.Errorf("engine: UNION branches project different column counts")
			}
			u.branches = append(u.branches, plan)
		}
		if !p.heuristicOnly() {
			u.proveMerge()
		}
		cs.union = u
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
	for t := range p.touched {
		cs.tables = append(cs.tables, tableVer{t: t, st: p.snap.stateOf(t)})
	}
	cs.params = p.params
	// Lower to the physical operator tree before the plan can be
	// published to (and shared through) the plan cache.
	lowerStmt(cs)
	return cs, nil
}

// planCache is a bounded LRU of compiled statements keyed on rendered
// SQL. A hit whose table versions are stale counts as a miss and is
// evicted; the caller then re-plans and re-inserts.
type planCache struct {
	mu sync.Mutex
	//guardedby:mu
	lru *list.List // front = most recently used; values are *planEntry
	//guardedby:mu
	byKey map[string]*list.Element
	//guardedby:mu
	hits uint64
	//guardedby:mu
	misses uint64
}

type planEntry struct {
	key string
	cs  *compiledStmt
}

// get returns the cached plan for key, or nil on miss/stale; snap is
// the snapshot freshness is judged against.
func (c *planCache) get(key string, snap *dbSnap) *compiledStmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if ok {
		cs := el.Value.(*planEntry).cs
		if cs.fresh(snap) {
			c.hits++
			c.lru.MoveToFront(el)
			return cs
		}
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	c.misses++
	return nil
}

// put inserts a freshly compiled plan, evicting the least recently
// used entry beyond capacity. A plan whose table states have
// already moved on is not inserted: a compile that raced with a
// mutation (or an evicted plan whose execution was still in flight)
// must not re-enter the cache with stale pins, where it would
// evict a good entry and force the next lookup through the
// stale-detection miss path.
func (c *planCache) put(key string, cs *compiledStmt, snap *dbSnap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !cs.fresh(snap) {
		return
	}
	if c.lru == nil {
		c.lru = list.New()
		c.byKey = map[string]*list.Element{}
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).cs = cs
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, cs: cs})
	for c.lru.Len() > PlanCacheCap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*planEntry).key)
	}
}

// size returns the number of cached plans.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Len()
}

// stats returns cumulative hit/miss counters.
func (c *planCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// compiledFor returns a compiled plan for st, consulting the DB's
// plan cache. key is the canonical cache key (the sqlast rendering of
// st); args are the call's parameter values, read only if the call
// turns out to compile.
func (db *DB) compiledFor(st sqlast.Statement, key string, args []Value) (*compiledStmt, error) {
	if cs := db.plans.get(key, db.loadSnap()); cs != nil {
		if next := db.maybeReplan(st, key, args, cs); next != nil {
			return next, nil
		}
		return cs, nil
	}
	cs, err := compileStmt(db, st, args, nil)
	if err != nil {
		return nil, err
	}
	if err := failpoint.Inject("engine/plancache-insert"); err != nil {
		return nil, err
	}
	db.plans.put(key, cs, db.loadSnap())
	return cs, nil
}

// compile is the preamble the plan describers (Explain, EXPLAIN
// ANALYZE, AnalyzeReport, OperatorCount, PlanShape) share: render the
// plan-cache key and fetch or build the plan, an internal panic in the
// planner returning as *InternalError.
func (db *DB) compile(st sqlast.Statement, args []Value) (key string, cs *compiledStmt, err error) {
	key = sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err = db.compiledFor(st, key, args)
	return key, cs, err
}

// observed returns what the plan's last execution (frame) saw of step
// i per binding: the access path's output and the rows past the step's
// residual filters; ok is false for a step that never executed.
func (p *selectPlan) observed(i int, frame opFrame) (access, rows float64, ok bool) {
	// The scan operator observes the access path's output; the filter
	// operator (when the step has one) the post-filter rows — mirroring
	// exactly what lowerSelect annotates each node with, so a re-planned
	// plan's q-errors collapse to 1.
	scan := frame[p.phys.scans[i].id]
	if scan.loops == 0 {
		return 0, 0, false
	}
	access = float64(scan.rowsOut) / float64(scan.loops)
	rows = access
	if f := p.phys.filters[i]; f != nil {
		// A filter's loop counter stays zero (its row flow is derived, see
		// finalizeFrame); its total output over the scan's bindings is the
		// per-binding post-filter cardinality.
		rows = float64(frame[f.id].rowsOut) / float64(scan.loops)
	}
	// Under first match the step stopped at the match: what it consumed
	// bounds what matches from below, and refutes only an estimate beneath
	// it. Taken for the fan-out it would send the next plan after an order
	// the truth does not favour.
	if s := p.steps[i]; p.truncated(i) {
		access = math.Max(access, s.estAccess)
		rows = math.Max(rows, s.estRows)
	}
	return access, rows, true
}

// worstQError is the largest per-step q-error of the select's estimates
// against the observations in frame, its correlated subplans included.
// It allocates nothing: a plan-cache hit runs it whenever the plan may
// still be re-planned, and the plan mostly stands.
func (p *selectPlan) worstQError(frame opFrame) float64 {
	worst := 1.0
	for i, s := range p.steps {
		access, rows, ok := p.observed(i, frame)
		if !ok {
			continue
		}
		if p.phys.filters[i] != nil {
			worst = math.Max(worst, qError(s.estAccess, access))
		}
		worst = math.Max(worst, qError(s.estRows, rows))
	}
	for _, n := range p.phys.ops {
		for _, ref := range n.sub {
			worst = math.Max(worst, ref.plan.worstQError(frame))
		}
	}
	return worst
}

// worstQError is selectPlan.worstQError over every select of the
// statement.
func (cs *compiledStmt) worstQError(frame opFrame) float64 {
	if cs.sel != nil {
		return cs.sel.worstQError(frame)
	}
	worst := 1.0
	for _, b := range cs.union.branches {
		worst = math.Max(worst, b.worstQError(frame))
	}
	return worst
}

// planFeedback returns the observed per-binding cardinalities of the
// plan's last execution keyed the way compileStmt expects, laid over
// the observations the plan was itself compiled from
// (compiledStmt.observed). Steps that never executed (loops == 0)
// contribute nothing.
func planFeedback(cs *compiledStmt, frame opFrame) *planOverrides {
	prior := cs.observed
	if prior == nil {
		prior = &planOverrides{}
	}
	collect := func(p *selectPlan, prior map[ovKey]ovEst) map[ovKey]ovEst {
		m := make(map[ovKey]ovEst, len(prior)+len(p.steps))
		for k, v := range prior {
			m[k] = v
		}
		bound := map[string]bool{}
		for i, s := range p.steps {
			after := boundKey(bound)
			bound[s.name] = true
			if access, rows, ok := p.observed(i, frame); ok {
				m[ovKey{s.name, after}] = ovEst{rows: rows, access: access}
			}
		}
		return m
	}
	ov := &planOverrides{subs: make(map[string]map[ovKey]ovEst, len(prior.subs))}
	for src, m := range prior.subs {
		ov.subs[src] = m
	}
	// Correlated subplans carry their own per-step estimates and stats;
	// their observations route back by rendered source (selectPlan.src).
	var collectSubs func(p *selectPlan)
	collectSubs = func(p *selectPlan) {
		for _, n := range p.phys.ops {
			for _, ref := range n.sub {
				if m := collect(ref.plan, prior.subs[ref.plan.src]); len(m) > 0 && ref.plan.src != "" {
					ov.subs[ref.plan.src] = m
				}
				collectSubs(ref.plan)
			}
		}
	}
	if cs.sel != nil {
		ov.sel = collect(cs.sel, prior.sel)
		collectSubs(cs.sel)
	} else {
		for i, b := range cs.union.branches {
			var was map[ovKey]ovEst
			if i < len(prior.branches) {
				was = prior.branches[i]
			}
			ov.branches = append(ov.branches, collect(b, was))
			collectSubs(b)
		}
	}
	return ov
}

// maybeReplan implements adaptive re-planning on a plan-cache hit:
// when the cached plan's last observed OpStats contradict its
// cardinality estimates beyond replanQErrorThreshold, the statement is
// re-planned with the observed cardinalities injected as overrides and
// the cache entry replaced. Returns nil when the cached plan stands.
// Re-planning is bounded (maxAdaptiveReplans) and version-safe: the
// new plan pins the current snapshot like any fresh compile, so a
// racing commit simply retires it through the normal freshness check.
func (db *DB) maybeReplan(st sqlast.Statement, key string, args []Value, cs *compiledStmt) *compiledStmt {
	if db.heuristicPlans.Load() || cs.replans >= maxAdaptiveReplans {
		return nil
	}
	fb := cs.feedback.Load()
	if fb == nil || cs.worstQError(*fb) <= replanQErrorThreshold {
		return nil
	}
	next, err := compileStmt(db, st, args, planFeedback(cs, *fb))
	if err != nil {
		return nil
	}
	next.replans = cs.replans + 1
	db.replanCount.Add(1)
	db.plans.put(key, next, db.loadSnap())
	return next
}

// PlanCacheSize returns the number of cached query plans.
func (db *DB) PlanCacheSize() int { return db.plans.size() }

// PlanCacheStats returns cumulative plan-cache hit and miss counts.
// Lookups that find an entry invalidated by a table mutation count as
// misses.
func (db *DB) PlanCacheStats() (hits, misses uint64) { return db.plans.stats() }

// Prepared is a parsed statement bound to a DB for repeated
// execution. Its plan lives in the DB's plan cache: re-running reuses
// the cached plan until a touched table is mutated, after which the
// next run transparently re-plans.
type Prepared struct {
	db  *DB
	st  sqlast.Statement
	key string
}

// PrepareStmt binds an already-parsed statement for repeated
// execution.
func (db *DB) PrepareStmt(st sqlast.Statement) *Prepared {
	return &Prepared{db: db, st: st, key: sqlast.Render(st)}
}

// RunWithOptionsContext executes the prepared statement through the
// statement boundary (see DB.RunWithOptionsContext), skipping the
// per-call render of the plan-cache key.
func (p *Prepared) RunWithOptionsContext(ctx context.Context, opts ExecOptions) (*Result, error) {
	return p.RunArgs(ctx, nil, opts)
}

// RunArgs is RunWithOptionsContext for a statement with parameter
// slots (sqlast.Param): args[k] is the value slot k takes in this
// execution, of the slot's kind. One cached plan serves every binding:
// the plan-cache key is the statement's text, slots left open. The
// call that happens to compile the plan lends its values to the
// planner's estimates and to nothing else; the values themselves
// travel with the execution, so concurrent calls share the plan and
// nothing more.
func (p *Prepared) RunArgs(ctx context.Context, args []Value, opts ExecOptions) (*Result, error) {
	return p.db.run(ctx, p.st, p.key, args, opts)
}
