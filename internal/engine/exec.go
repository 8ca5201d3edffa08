package engine

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// Result is the outcome of executing a statement.
type Result struct {
	Cols []string
	Rows [][]Value
	// PeakMemBytes is the statement's peak accounted memory: the
	// high-water mark of materialized result rows, ORDER BY keys,
	// DISTINCT sets and exec-time hash builds (see the resource
	// governor in govern.go).
	PeakMemBytes int64
}

// ExecOptions are what a caller decides about a single statement: its
// resource budgets and a debug check of its plan. How many goroutines
// run it and how many row ids cross an operator boundary at once are
// the engine's decisions (DB.morselWorkers, batchCapacity); the
// caller's context is the one way to bound its time.
type ExecOptions struct {
	// MaxMemoryBytes bounds the bytes the statement may materialize
	// (result rows, ORDER BY keys, DISTINCT sets, exec-time hash-join
	// builds); ErrMemoryBudget reports an overrun (0 means no limit).
	MaxMemoryBytes int64
	// MaxRows bounds the result rows the statement may materialize;
	// ErrRowBudget reports an overrun (0 means no limit). COUNT(*)
	// aggregation counts without materializing and is not bounded.
	MaxRows int64
	// VerifyPlan, when non-nil, is called with the compiled plan
	// (cached or fresh) before executing — a debug check that the plan
	// the cache hands back is still provably equivalent to the
	// statement (plancheck.Verifier builds one). Execution fails when
	// it rejects the plan.
	VerifyPlan func(PlanTrace) error
}

// execCtx carries execution state shared across a statement run. Each
// morsel worker gets its own execCtx so the cancellation tick counter
// stays unshared; the accountant and context are shared across
// workers.
type execCtx struct {
	db    *DB
	ctx   context.Context // nil when the statement has no context
	ticks int
	acct  *accountant
	sql   string // rendered statement text, for InternalError
	// args are this execution's parameter values (Prepared.RunArgs),
	// read by cparam; checked against the plan's slots before it runs.
	args []Value
	// slots is the size of the statement's env (compiledStmt.slots).
	slots int
	// stats is this execution's operator stats frame (one slot per
	// opNode id). Morsel workers carry private frames merged into the
	// parent's after the workers join, so slots are single-writer.
	stats opFrame
	// cur is the operator whose expressions are currently being
	// evaluated; pattern-cache hits are attributed to it.
	cur *OpStats
	// timing enables per-operator wall-clock measurement (EXPLAIN
	// ANALYZE); plain runs never read the clock per operator.
	timing bool
	// batch is the row-id batch capacity (batchCapacity, or the one an
	// engine test forces through DB.forceBatch); free/freeOne pool the
	// per-step batch scratches (batch.go). Scratches are execCtx-local:
	// every morsel worker has a private execCtx.
	batch   int
	free    []*batchScratch
	freeOne []*batchScratch
}

// newEnv returns an env with a slot for every alias of the statement.
func (ec *execCtx) newEnv() env { return make(env, ec.slots) }

// op returns the stats slot of an operator node in this execution's
// frame.
func (ec *execCtx) op(n *opNode) *OpStats { return &ec.stats[n.id] }

// checkNow checks the statement's context unconditionally: a
// cancelled context, or one whose deadline has fired, returns
// ctx.Err(). Phase boundaries (after a hash-join build, before fan-out)
// call it directly so a deadline that fired during a long build is
// observed before the next phase starts, regardless of the tick
// counter's position.
func (ec *execCtx) checkNow() error {
	if ec.ctx == nil {
		return nil
	}
	select {
	case <-ec.ctx.Done():
		return ec.ctx.Err()
	default:
		return nil
	}
}

// pattern returns a compiled matcher for a dynamic REGEXP_LIKE
// pattern (constant patterns are compiled at plan time), attributing
// cache hits to the operator currently evaluating expressions.
func (ec *execCtx) pattern(pat string) (*matcher, error) {
	if m, ok := patternCache.get(pat); ok {
		if ec.cur != nil {
			ec.cur.patternHit()
		}
		return m, nil
	}
	return compilePattern(pat)
}

// RunWithOptionsContext is the statement boundary, the one place a
// statement of any kind enters the engine: SELECT/UNION plan through
// the prepared-plan cache and return rows, EXPLAIN returns the plan
// as rows, and CREATE TABLE / CREATE INDEX / INSERT mutate the
// database and return a single status row. It honors ctx cancellation
// (nil means no context; a write checks it once, before committing),
// and an internal panic anywhere in planning, execution or the write
// path returns as *InternalError instead of propagating.
func (db *DB) RunWithOptionsContext(ctx context.Context, st sqlast.Statement, opts ExecOptions) (*Result, error) {
	return db.run(ctx, st, sqlast.Render(st), nil, opts)
}

// ExecSQL parses one statement of text and sends it through the
// statement boundary.
func (db *DB) ExecSQL(ctx context.Context, src string, opts ExecOptions) (*Result, error) {
	st, err := sqlast.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.RunWithOptionsContext(ctx, st, opts)
}

// run executes st under the panic guard; key is its rendered text
// (the plan-cache key, precomputed by Prepared) and args the values of
// its parameter slots, if it has any.
func (db *DB) run(ctx context.Context, st sqlast.Statement, key string, args []Value, opts ExecOptions) (_ *Result, err error) {
	defer guardPanics(key, &err)
	switch s := st.(type) {
	case *sqlast.Select, *sqlast.Union:
		ac := newAccountant(opts.MaxMemoryBytes, opts.MaxRows)
		cs, err := db.compiledFor(ctx, ac, st, key, args)
		if err != nil {
			db.notePeakMemory(ac.peakBytes())
			return nil, err
		}
		if opts.VerifyPlan != nil {
			if err := verifyCompiled(opts.VerifyPlan, st, key, cs); err != nil {
				return nil, err
			}
		}
		res, _, err := db.runCompiledFrame(ctx, cs, args, ac, key, false)
		return res, err
	case *sqlast.Explain:
		return db.runExplainStmt(ctx, s, args, opts)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return db.runWrite(st)
}

// runCompiledFrame executes an already-compiled statement and returns
// the result with the execution's operator stats frame (merged across
// workers). Callers must have deferred guardPanics; ac is the
// statement's accountant, which the compile may already have charged;
// sql is the rendered statement text carried into worker-side
// InternalErrors. timing enables per-operator wall-clock measurement;
// EXPLAIN ANALYZE is its only caller with timing on, so plain runs stay
// clock-free in the row loops.
func (db *DB) runCompiledFrame(ctx context.Context, cs *compiledStmt, args []Value, ac *accountant, sql string, timing bool) (*Result, opFrame, error) {
	for slot, kind := range cs.params {
		if kind != KNull && (slot >= len(args) || args[slot].Kind != kind) {
			return nil, nil, fmt.Errorf("engine: parameter ?%d is unbound or not of the kind the statement was prepared with", slot+1)
		}
	}
	ec := &execCtx{db: db, ctx: ctx, sql: sql, args: args, slots: cs.slots,
		acct:  ac,
		stats: make(opFrame, cs.nOps), timing: timing,
		batch: batchCapacity}
	if db.forceBatch > 0 {
		ec.batch = db.forceBatch
	}
	// An already-cancelled context (or a fired deadline) fails before
	// any work: short statements would otherwise finish between periodic
	// checks and mask the cancellation.
	if err := ec.checkNow(); err != nil {
		return nil, ec.stats, err
	}
	var res *Result
	var err error
	if cs.sel != nil {
		res, err = ec.runTop(cs.sel)
	} else {
		res, err = ec.runUnion(cs.union)
	}
	// Record the peak even when the statement failed: a budget error is
	// exactly when the high-water mark matters.
	db.notePeakMemory(ec.acct.peakBytes())
	if err != nil {
		return nil, ec.stats, err
	}
	finalizeFrame(cs, ec.stats)
	res.PeakMemBytes = ec.acct.peakBytes()
	return res, ec.stats, nil
}

// runUnion executes a compiled UNION: branches run in order (each
// branch through runTop, so each takes its own executor decision),
// duplicate rows are dropped across branches, and the merged rows are
// ordered by the union-level ORDER BY — by merging the branch results
// where every branch is proven to arrive in that order (implied.go),
// else by collecting, deduplicating and sorting them.
func (ec *execCtx) runUnion(u *unionPlan) (*Result, error) {
	out := &Result{Cols: u.cols}
	st := ec.op(u.phys.union)
	st.open()
	if u.merge {
		results := make([][][]Value, len(u.branches))
		total := 0
		for i, plan := range u.branches {
			res, err := ec.runTop(plan)
			if err != nil {
				return nil, err
			}
			results[i] = res.Rows
			total += len(res.Rows)
		}
		st.rowsInN(int64(total))
		var t0 time.Time
		if ec.timing {
			t0 = time.Now()
		}
		out.Rows = mergeOrdered(results, u.orderPos[0], total)
		if ec.timing {
			st.addTime(time.Since(t0))
		}
		st.rowsOutN(int64(len(out.Rows)))
		return out, nil
	}
	seen := map[string]bool{}
	var rows []orderedRow
	for _, plan := range u.branches {
		res, err := ec.runTop(plan)
		if err != nil {
			return nil, err
		}
		var t0 time.Time
		if ec.timing {
			t0 = time.Now()
		}
		for _, r := range res.Rows {
			st.rowIn()
			key := rowKey(r)
			if seen[key] {
				continue
			}
			// The union-level dedup set and merged buffer are additional
			// materialization on top of the (already accounted) branch
			// results.
			if err := ec.acct.growBytes(int64(len(key)) + mapEntryBytes); err != nil {
				return nil, err
			}
			st.charge(int64(len(key)) + mapEntryBytes)
			seen[key] = true
			st.rowOut()
			or := orderedRow{row: r}
			for _, pos := range u.orderPos {
				or.keys = append(or.keys, r[pos])
			}
			rows = append(rows, or)
		}
		if ec.timing {
			st.addTime(time.Since(t0))
		}
	}
	if u.phys.sort != nil {
		ec.sortOp(u.phys.sort, rows, u.orderDesc)
	}
	out.Rows = plainRows(rows)
	return out, nil
}

// mergeOrdered merges branch results that each hold their rows strictly
// ascending in column pos, all of one kind and none NULL (the union's
// merge proof), dropping a row equal to one already taken. Equal keys
// go lowest branch first, which is where the collect-and-stable-sort
// path puts them, and a duplicate can only be among them.
func mergeOrdered(branches [][][]Value, pos, total int) [][]Value {
	if total == 0 {
		return nil
	}
	out := make([][]Value, 0, total)
	group := 0 // out[group:] holds the rows taken under the current key
	for {
		min := -1
		for i, b := range branches {
			if len(b) > 0 && (min < 0 || ascends(b[0][pos], branches[min][0][pos], false)) {
				min = i
			}
		}
		if min < 0 {
			return out
		}
		row := branches[min][0]
		branches[min] = branches[min][1:]
		if n := len(out); n > 0 && ascends(out[n-1][pos], row[pos], false) {
			group = n
		}
		dup := false
		for _, taken := range out[group:] {
			if rowKey(taken) == rowKey(row) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, row)
		}
	}
}

// sortOp sorts rows by their ORDER BY keys under a sort operator's
// stats.
func (ec *execCtx) sortOp(n *opNode, rows []orderedRow, desc []bool) {
	st := ec.op(n)
	st.open()
	st.rowsInN(int64(len(rows)))
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	sortRows(rows, desc)
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	st.rowsOutN(int64(len(rows)))
}

// runTop executes a plan as a top-level query: projection, then
// DISTINCT and ORDER BY where the lowered pipeline still holds them. A
// select runs on morsel workers where DB.morselWorkers says so and on
// the serial executor otherwise; the two differ in time only.
func (ec *execCtx) runTop(plan *selectPlan) (*Result, error) {
	c := &collector{plan: plan, exact: ec.acct.limited()}
	if plan.phys.dedup != nil {
		c.seen = map[string]bool{}
		ec.op(plan.phys.dedup).open()
	}
	var err error
	if workers := ec.db.morselWorkers(plan); workers > 1 {
		err = ec.collectMorsels(plan, workers, c)
	} else {
		err = ec.runPlanBatch(plan, ec.newEnv(), ec.batch, func(row, keys []Value) (bool, error) {
			return true, c.add(ec, row, keys)
		})
	}
	if err == nil {
		err = ec.acct.addRows(c.pendRows, c.pendBytes)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: plan.colNames}
	if plan.countStar {
		out.Rows = [][]Value{{NewInt(c.count)}}
		return out, nil
	}
	if plan.phys.sort != nil {
		desc := make([]bool, len(plan.orderBy))
		for i, k := range plan.orderBy {
			desc[i] = k.desc
		}
		ec.sortOp(plan.phys.sort, c.rows, desc)
	}
	out.Rows = plainRows(c.rows)
	return out, nil
}

// collector consumes a top-level select's projected rows in the serial
// executor's emission order: it counts them for COUNT(*), drops
// duplicates where the pipeline holds a distinct operator, and charges
// the governor — per row under a budget, so the typed error fires at
// the same row at every batch size, in batches otherwise (only the
// peak matters then, and accounted bytes only grow during collection).
// The morsel executor feeds it in morsel order, which is that same
// order, so both executors keep the same rows, charge the same bytes
// and fail at the same row.
type collector struct {
	plan                *selectPlan
	rows                []orderedRow
	count               int64
	seen                map[string]bool // nil unless the pipeline holds a distinct
	exact               bool
	pendRows, pendBytes int64
}

// add takes the next row. ec is the execution feeding it: the distinct
// operator's counters go to its frame.
func (c *collector) add(ec *execCtx, row, keys []Value) error {
	if c.plan.countStar {
		c.count++
		return nil
	}
	if c.seen != nil {
		dst := ec.op(c.plan.phys.dedup)
		dst.rowIn()
		var t0 time.Time
		if ec.timing {
			t0 = time.Now()
		}
		k := rowKey(row)
		dup := c.seen[k]
		if !dup {
			c.seen[k] = true
		}
		if ec.timing {
			dst.addTime(time.Since(t0))
		}
		if dup {
			return nil
		}
		cost := int64(len(k)) + mapEntryBytes
		if c.exact {
			if err := ec.acct.growBytes(cost); err != nil {
				return err
			}
		} else {
			c.pendBytes += cost
		}
		dst.charge(cost)
		dst.rowOut()
	}
	b := rowMemBytes(row, keys)
	if c.exact {
		if err := ec.acct.addRow(b); err != nil {
			return err
		}
	} else {
		c.pendRows++
		c.pendBytes += b
		if c.pendRows >= int64(ec.batch) {
			if err := ec.acct.addRows(c.pendRows, c.pendBytes); err != nil {
				return err
			}
			c.pendRows, c.pendBytes = 0, 0
		}
	}
	c.rows = append(c.rows, orderedRow{row: row, keys: keys})
	return nil
}

// plainRows strips the ORDER BY keys off collected rows: the result's
// row list, sized once (nil when empty).
func plainRows(rows []orderedRow) [][]Value {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]Value, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
}

// rowKey builds a distinct-set key for a projected row using the
// order-preserving keyenc encoding.
func rowKey(row []Value) string {
	var buf []byte
	for _, v := range row {
		buf = encodeValue(buf, v)
	}
	return string(buf)
}

// lessKeys compares two ORDER BY key vectors value by value. It is
// the general comparison path; sortRows prefers precomputed
// memcomparable keys when the key kinds allow it.
func lessKeys(a, b []Value, desc []bool) bool {
	for i := range a {
		cmp, ok := Compare(a[i], b[i])
		if !ok {
			// NULLs (and incomparables) sort first.
			an, bn := a[i].IsNull(), b[i].IsNull()
			if an == bn {
				continue
			}
			cmp = 1
			if an {
				cmp = -1
			}
		}
		if cmp == 0 {
			continue
		}
		if desc[i] {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

// runPlan enumerates matching bindings and emits projected rows.
// The emit callback returns false to stop enumeration early.
func (ec *execCtx) runPlan(plan *selectPlan, e env, emit func(row []Value) (bool, error)) error {
	return ec.runPlanBatch(plan, e, ec.batch, func(row, _ []Value) (bool, error) { return emit(row) })
}

// runPlanFirst is runPlan with single-row batches, for consumers that
// stop at the first emitted row (EXISTS, scalar subqueries): a
// read-ahead batch would make the scan/probe counters — and the work
// done past the stopping row — depend on the batch size.
func (ec *execCtx) runPlanFirst(plan *selectPlan, e env, emit func(row []Value) (bool, error)) error {
	return ec.runPlanBatch(plan, e, 1, func(row, _ []Value) (bool, error) { return emit(row) })
}

// runPlanBatch enumerates with an explicit batch capacity.
func (ec *execCtx) runPlanBatch(plan *selectPlan, e env, batch int, emit func(row, keys []Value) (bool, error)) error {
	if len(plan.preFilters) > 0 {
		ok, err := ec.evalPreFilters(plan, e)
		if err != nil || !ok {
			return err
		}
	}
	r := &stepRunner{ec: ec, plan: plan, e: e, emit: emit, batch: batch, first: plan.firstFrom}
	return r.run(0)
}

// evalPreFilters evaluates the plan's constant conjuncts against the
// prefilter operator; ok=false means the plan yields no rows.
func (ec *execCtx) evalPreFilters(plan *selectPlan, e env) (ok bool, err error) {
	if len(plan.preFilters) == 0 {
		return true, nil
	}
	st := ec.op(plan.phys.prefilter)
	st.open()
	prev := ec.cur
	ec.cur = st
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	pass := true
	for _, f := range plan.preFilters {
		v, ferr := f.eval(ec, e)
		if ferr != nil {
			err = ferr
			break
		}
		if !v.Truth() {
			pass = false
			break
		}
	}
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	ec.cur = prev
	if err != nil || !pass {
		return false, err
	}
	st.rowOut()
	return true, nil
}

// stepRunner walks a plan's physical scan/filter pipeline
// recursively, binding batches of candidate rows per step. The morsel
// executor reuses it through runRoot after materializing the driving
// ids itself. batch is the id-batch capacity (1 for early-stopping
// subplan consumers, see runPlanFirst).
type stepRunner struct {
	ec    *execCtx
	plan  *selectPlan
	e     env
	emit  func(row, keys []Value) (bool, error)
	stop  bool
	batch int
	// first is the first step of the plan's first-match run (selectPlan.
	// firstFrom, 0 without one): once the bindings before the run have
	// emitted — matched — every step of the run unwinds to the step
	// before it, which clears the flag and binds its next row.
	first   int
	matched bool
}

// run opens the scan operator of the given step and pushes each batch
// of candidate rows down the pipeline (projecting and emitting once
// all steps are bound). A scan's measured time is inclusive of its
// downstream operators, like the nesting of the rendered tree.
func (r *stepRunner) run(step int) error {
	if step == len(r.plan.steps) {
		return r.project()
	}
	s := r.plan.steps[step]
	st := r.ec.op(r.plan.phys.scans[step])
	st.open()
	batch := r.batch
	if r.first > 0 && step >= r.first {
		// Like any consumer that stops at the first row (runPlanFirst):
		// a read-ahead batch would make the counters, and the work done
		// past the match, depend on the batch size.
		batch = 1
	}
	sc := r.ec.getScratch(batch)
	var err error
	if r.ec.timing {
		t0 := time.Now()
		err = r.runStep(step, s, st, sc)
		st.addTime(time.Since(t0))
	} else {
		err = r.runStep(step, s, st, sc)
	}
	r.ec.putScratch(sc)
	return err
}

// runStep enumerates one step's candidate batches. The yield closure
// is built once per step activation — never per batch or per row.
// Consumed-row accounting matches the old per-row executor exactly: a
// row that caused an early stop or error is counted as scanned, rows
// after it in the batch are not.
func (r *stepRunner) runStep(step int, s *joinStep, st *OpStats, sc *batchScratch) error {
	yield := func(ids []int64) (bool, error) {
		if err := failpoint.Inject("engine/batch-flush"); err != nil {
			return false, err
		}
		n, err := r.processBatch(step, s, sc, ids)
		st.rowsOutN(int64(n))
		if err != nil {
			return false, err
		}
		return !r.stop && !r.matched, nil
	}
	return forEachBatch(r.ec, r.e, s, st, sc, yield)
}

// runRoot pushes already-materialized driving-step ids through the
// pipeline in batches. The driving scan's enumeration was counted
// when the ids were materialized (drivingIDs), so batches here go
// straight to the filter stage without re-crediting the scan.
func (r *stepRunner) runRoot(ids []int64) error {
	s := r.plan.steps[0]
	sc := r.ec.getScratch(r.batch)
	var err error
	for len(ids) > 0 && err == nil && !r.stop {
		n := len(ids)
		if n > r.batch {
			n = r.batch
		}
		_, err = r.processBatch(0, s, sc, ids[:n])
		ids = ids[n:]
	}
	r.ec.putScratch(sc)
	return err
}

// processBatch pushes one batch of candidate ids through the step's
// filters and the rest of the pipeline, returning how many of the
// batch's rows were consumed (all of them unless an early stop or
// error cut the batch short). The cancellation poll and filter-stat
// attribution are paid once per batch; binding a candidate is storing
// its row id in the step's env slot.
func (r *stepRunner) processBatch(step int, s *joinStep, sc *batchScratch, ids []int64) (int, error) {
	ec := r.ec
	if err := ec.checkBatch(len(ids)); err != nil {
		return 0, err
	}
	var fst *OpStats
	if f := r.plan.phys.filters[step]; f != nil {
		fst = ec.op(f)
	}
	for i, id := range ids {
		r.e[s.slot] = id
		if len(s.filters) > 0 {
			pass, err := r.evalFilters(s.filters, fst)
			if err != nil {
				return i + 1, err
			}
			if !pass {
				continue
			}
		}
		if err := r.run(step + 1); err != nil {
			return i + 1, err
		}
		if r.stop {
			return i + 1, nil
		}
		if r.matched {
			if step >= r.first {
				return i + 1, nil
			}
			r.matched = false
		}
	}
	return len(ids), nil
}

// evalFilters evaluates the step's residual filter conjuncts for the
// currently bound row. No row counting here: the
// filter's row flow is derived once per execution by finalizeFrame;
// only expression attribution (ec.cur) and, under EXPLAIN ANALYZE,
// wall-clock attribution are maintained.
func (r *stepRunner) evalFilters(filters []cexpr, st *OpStats) (ok bool, err error) {
	ec := r.ec
	prev := ec.cur
	ec.cur = st
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	pass := true
	for _, f := range filters {
		v, ferr := f.eval(ec, r.e)
		if ferr != nil {
			err = ferr
			break
		}
		if !v.Truth() {
			pass = false
			break
		}
	}
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	ec.cur = prev
	return err == nil && pass, err
}

// project evaluates the projection (and ORDER BY keys) for a fully
// bound row and emits it through the output operator.
func (r *stepRunner) project() error {
	ec := r.ec
	st := ec.op(r.plan.phys.output)
	st.rowIn()
	prev := ec.cur
	ec.cur = st
	var row, keys []Value
	var err error
	if ec.timing {
		t0 := time.Now()
		row, keys, err = r.projectRow()
		st.addTime(time.Since(t0))
	} else {
		row, keys, err = r.projectRow()
	}
	ec.cur = prev
	if err != nil {
		return err
	}
	st.rowOut()
	cont, err := r.emit(row, keys)
	if err != nil {
		return err
	}
	if !cont {
		r.stop = true
	}
	r.matched = r.first > 0
	return nil
}

// projectRow evaluates the projection columns for the currently bound
// row, and the ORDER BY keys where a sort operator will read them.
func (r *stepRunner) projectRow() (row, keys []Value, err error) {
	ec := r.ec
	if !r.plan.countStar {
		row = make([]Value, len(r.plan.cols))
		for i, c := range r.plan.cols {
			if row[i], err = c.eval(ec, r.e); err != nil {
				return nil, nil, err
			}
		}
	}
	if r.plan.phys.sort != nil {
		keys = make([]Value, len(r.plan.orderBy))
		for i, k := range r.plan.orderBy {
			if keys[i], err = k.x.eval(ec, r.e); err != nil {
				return nil, nil, err
			}
		}
	}
	return row, keys, nil
}

// equalResults reports whether two results hold the same multiset of
// rows in the same order; used by tests.
func equalResults(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !bytes.Equal([]byte(rowKey(a.Rows[i])), []byte(rowKey(b.Rows[i]))) {
			return false
		}
	}
	return true
}
