package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
)

// morselSize is the number of driving-table rows per morsel. Small
// enough that workers load-balance across skewed join fan-outs, large
// enough to amortize scheduling.
const morselSize = 256

// morselOut is one morsel's private output buffer; workers never
// share buffers, so emission is race-free by construction.
type morselOut struct {
	rows  []orderedRow
	count int64
}

// collectParallel runs a top-level plan by partitioning the driving
// step's row ids into fixed-size morsels executed by up to
// ec.parallelism workers. Per-morsel buffers are concatenated in
// morsel order, so the merged stream is exactly the serial emission
// order (DISTINCT and the stable sort then behave identically to the
// serial executor). handled=false means the plan isn't worth (or
// can't be) partitioned and the caller should run serially.
//
// Correlated subplans (EXISTS, scalar subqueries) are not partitioned:
// they run serially inside whichever worker bound their outer row,
// against that worker's private env and execCtx.
func (ec *execCtx) collectParallel(plan *selectPlan) (rows []orderedRow, count int64, handled bool, err error) {
	if len(plan.steps) == 0 {
		return nil, 0, false, nil
	}
	// Constant pre-filters: a false one yields an empty result (or a
	// zero count) without touching any rows.
	ok, err := ec.evalPreFilters(plan, env{})
	if err != nil {
		return nil, 0, false, err
	}
	if !ok {
		return nil, 0, true, nil
	}
	ids, err := drivingIDs(ec, plan)
	if err != nil {
		return nil, 0, false, err
	}
	if len(ids) <= morselSize {
		// A single morsel gains nothing; let the serial executor run.
		return nil, 0, false, nil
	}
	nMorsels := (len(ids) + morselSize - 1) / morselSize
	workers := ec.parallelism
	if workers > nMorsels {
		workers = nMorsels
	}
	// Build shared read-only state up front so workers never race on
	// lazily initialized hash-join build sides; a build that blows
	// the memory budget fails the statement before any fan-out.
	if err := prebuildHashJoins(ec, plan); err != nil {
		return nil, 0, false, err
	}
	// The builds may have consumed the deadline; observe it before
	// spawning workers.
	if err := ec.checkNow(); err != nil {
		return nil, 0, false, err
	}

	outs := make([]morselOut, nMorsels)
	errs := make([]error, workers)
	frames := make([]opFrame, workers)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Private execCtx: the deadline tick counter and the operator
			// stats frame must not be shared (frames are merged below,
			// after the join). Nested subplans see parallelism 0 (serial).
			// The accountant and context are shared: budgets govern the
			// statement, not the worker.
			wec := &execCtx{db: ec.db, ctx: ec.ctx, deadline: ec.deadline,
				acct: ec.acct, sql: ec.sql, args: ec.args,
				stats: make(opFrame, len(ec.stats)), timing: ec.timing,
				batch: ec.batch}
			frames[w] = wec.stats
			if werr := wec.workerLoop(plan, ids, nMorsels, outs, &next, &aborted); werr != nil {
				errs[w] = werr
				aborted.Store(true)
			}
		}(w)
	}
	wg.Wait()
	// Fold the per-worker stats shards into the statement's frame; the
	// workers have joined, so each slot is back to a single writer.
	for _, f := range frames {
		ec.stats.mergeFrom(f)
	}
	for _, werr := range errs {
		if werr != nil {
			return nil, 0, false, werr
		}
	}
	if plan.countStar {
		for _, o := range outs {
			count += o.count
		}
		return nil, count, true, nil
	}
	total := 0
	for _, o := range outs {
		total += len(o.rows)
	}
	rows = make([]orderedRow, 0, total)
	for _, o := range outs {
		rows = append(rows, o.rows...)
	}
	return rows, 0, true, nil
}

// workerLoop is one worker's morsel-claiming loop. It is the
// worker-side statement boundary: a panic inside any morsel converts
// to *InternalError here (the goroutine's own deferred recover — the
// caller's cannot see it) and aborts the other workers at their next
// claim.
func (ec *execCtx) workerLoop(plan *selectPlan, ids []int64, nMorsels int,
	outs []morselOut, next *atomic.Int64, aborted *atomic.Bool) (err error) {
	defer guardPanics(ec.sql, &err)
	for {
		m := int(next.Add(1)) - 1
		if m >= nMorsels || aborted.Load() {
			return nil
		}
		if err := failpoint.Inject("engine/morsel-claim"); err != nil {
			return err
		}
		// One unconditional deadline/cancellation check per claim: the
		// in-morsel tick counter only fires every 1024 rows, which a
		// worker draining a few small morsels never reaches.
		if err := ec.checkNow(); err != nil {
			return err
		}
		lo := m * morselSize
		hi := lo + morselSize
		if hi > len(ids) {
			hi = len(ids)
		}
		if err := runMorsel(ec, plan, ids[lo:hi], &outs[m]); err != nil {
			return err
		}
	}
}

// runMorsel drives one morsel's row ids through the join pipeline in
// batches, buffering projected rows (or the count) into the morsel's
// private output. With a budget set, buffered rows charge the shared
// accountant per row so the typed error fires at the exact row
// regardless of batch size; without one the charges are flushed per
// morsel (checks are then no-ops and only the peak matters, which
// only ever grows during collection).
func runMorsel(ec *execCtx, plan *selectPlan, ids []int64, out *morselOut) error {
	exact := ec.acct.limited()
	var pendRows, pendBytes int64
	r := &stepRunner{ec: ec, plan: plan, e: env{}, batch: ec.batch, first: plan.firstFrom,
		emit: func(row, keys []Value) (bool, error) {
			if plan.countStar {
				out.count++
				return true, nil
			}
			b := rowMemBytes(row, keys)
			if exact {
				if err := ec.acct.addRow(b); err != nil {
					return false, err
				}
			} else {
				pendRows++
				pendBytes += b
			}
			out.rows = append(out.rows, orderedRow{row: row, keys: keys})
			return true, nil
		}}
	if err := r.runRoot(ids); err != nil {
		return err
	}
	return ec.acct.addRows(pendRows, pendBytes)
}

// drivingIDs materializes the driving step's candidate row ids in the
// executor's canonical enumeration order, recording the enumeration
// against the driving scan's operator (the workers then only replay
// the materialized ids, so the scan is counted exactly once). At the
// top level the step's access expressions can only reference
// constants (no outer bindings), so enumeration under an empty env is
// exact.
func drivingIDs(ec *execCtx, plan *selectPlan) ([]int64, error) {
	s := plan.steps[0]
	st := ec.op(plan.phys.scans[0])
	st.open()
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	defer func() {
		if ec.timing {
			st.addTime(time.Since(t0))
		}
	}()
	if _, ok := s.access.(fullScan); ok {
		ids := make([]int64, len(s.st.rows))
		for i := range ids {
			ids[i] = int64(i)
		}
		st.rowsOutN(int64(len(ids)))
		return ids, nil
	}
	var ids []int64
	sc := ec.getScratch(ec.batch)
	err := forEachBatch(ec, env{}, s, st, sc, func(batch []int64) (bool, error) {
		st.rowsOutN(int64(len(batch)))
		ids = append(ids, batch...)
		return true, nil
	})
	ec.putScratch(sc)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// prebuildHashJoins forces construction of every hash-join build side
// the plan's steps will probe, charging builds to the statement's
// accountant and attributing the charged bytes to the probing step's
// scan operator.
func prebuildHashJoins(ec *execCtx, plan *selectPlan) error {
	for i, s := range plan.steps {
		col := -1
		switch a := s.access.(type) {
		case *hashEq:
			col = a.col
		case *fatHash:
			col = a.h.col
		case *keyProbe:
			if a.ix == nil {
				col = a.col
			}
		}
		if col < 0 {
			continue
		}
		_, built, bytes, err := s.st.hashFor(col, ec.acct)
		if err != nil {
			return err
		}
		if built {
			ec.op(plan.phys.scans[i]).charge(bytes)
		}
	}
	return nil
}
