package engine

import (
	"container/list"
	"context"
	"fmt"
	"sync"

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
	// params are the kinds of the parameter slots the plan reads, by slot
	// (KNull for a slot nothing compiled reads): what every execution's
	// arguments are checked against.
	params []Kind
	// slots is the number of env slots the plan binds (planner.slots).
	slots int
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

// compileStmt plans a statement from scratch against one database
// snapshot, recording the pinned states of all tables it touches
// (including correlated-subquery tables). args are the values the
// triggering call binds to the statement's parameter slots, which the
// estimates read (estimate.go); ctx and ac are its context and
// accountant, which a build the estimates make answers to.
func compileStmt(ctx context.Context, ac *accountant, db *DB, st sqlast.Statement, args []Value) (*compiledStmt, error) {
	p := &planner{db: db, snap: db.loadSnap(), heuristic: db.forceHeuristic, touched: map[*Table]bool{}, args: args, ctx: ctx, ac: ac}
	cs := &compiledStmt{}
	switch s := st.(type) {
	case *sqlast.Select:
		plan, err := p.planSelect(s, nil)
		if err != nil {
			return nil, err
		}
		cs.sel = plan
	case *sqlast.Union:
		u := &unionPlan{}
		for _, branch := range s.Selects {
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
		if !p.heuristic {
			u.proveMerge()
		}
		cs.union = u
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
	if p.err != nil {
		return nil, p.err
	}
	for t := range p.touched {
		cs.tables = append(cs.tables, tableVer{t: t, st: p.snap.stateOf(t)})
	}
	cs.params = p.params
	cs.slots = p.slots
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
// st); args are the call's parameter values, and ctx and ac its context
// and accountant, read only if the call turns out to compile.
func (db *DB) compiledFor(ctx context.Context, ac *accountant, st sqlast.Statement, key string, args []Value) (*compiledStmt, error) {
	if cs := db.plans.get(key, db.loadSnap()); cs != nil {
		return cs, nil
	}
	cs, err := compileStmt(ctx, ac, db, st, args)
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
// ANALYZE, OperatorCount, PlanShape) share: render the plan-cache key
// and fetch or build the plan under the call's ctx and ac, an internal
// panic in the planner returning as *InternalError. A describer called
// outside the statement boundary runs nothing and passes nil for both.
func (db *DB) compile(ctx context.Context, ac *accountant, st sqlast.Statement, args []Value) (key string, cs *compiledStmt, err error) {
	key = sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err = db.compiledFor(ctx, ac, st, key, args)
	return key, cs, err
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
