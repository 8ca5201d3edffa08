package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
)

// The morsel executor runs a top-level select (a UNION branch is one)
// by cutting its driving step's row ids into morsels that workers claim
// in order. Whether a select runs on it is the engine's decision: the
// planner marks the selects worth it (worthMorsels) and GOMAXPROCS
// bounds the workers (DB.morselWorkers). It differs from the serial
// executor in time only: the rows reach the same collector in the same
// order, so results, operator counters and governor charges agree.

// morselSize is the number of driving-table rows per morsel. Small
// enough that workers load-balance across skewed join fan-outs, large
// enough to amortize scheduling.
const morselSize = 256

// worthMorsels is the planner's half of the decision for a top-level
// select: its driving step is estimated to yield more than one morsel
// of rows, and each of them carries work beyond its own filters — a
// later join step or a correlated subplan. A single-step scan stays
// serial at any size: that is where morsels measured a loss, on the
// small scans and point lookups of the Figure 3 pass (Q2, Q5, Q9, Q11,
// Q22; Q11 at 0.6×, EXPERIMENTS.md E14). Q3 and Q4, 10 177- and
// 4 931-row single-step scans, are the measured exception (mostly
// 1.4–1.7× faster on two workers), given up until a size cut is
// measured with workloads on both sides of it.
func (p *selectPlan) worthMorsels() bool {
	if len(p.steps) == 0 || p.steps[0].estAccess <= morselSize {
		return false
	}
	if len(p.steps) > 1 {
		return true
	}
	for _, f := range p.steps[0].filters {
		if filterClass(f) == filterSubplan {
			return true
		}
	}
	return false
}

// morselWorkers is the executor decision for one top-level select: how
// many workers may run it, 1 meaning the serial executor.
func (db *DB) morselWorkers(plan *selectPlan) int {
	switch {
	case len(plan.steps) == 0:
		return 1
	case db.forceWorkers > 0:
		return db.forceWorkers
	case plan.morsels:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// collectMorsels runs a top-level select on up to workers goroutines,
// the caller and its helpers, feeding its rows to c in the serial
// executor's order. The driving step is enumerated once, here; the
// workers replay its ids, so ids that fill a single morsel (the
// estimate was high) run on the caller alone. Correlated subplans are
// not partitioned: they run serially inside whichever worker bound
// their outer row, against that worker's execCtx.
func (ec *execCtx) collectMorsels(plan *selectPlan, workers int, c *collector) error {
	if ok, err := ec.evalPreFilters(plan, env{}); err != nil || !ok {
		return err
	}
	ids, err := drivingIDs(ec, plan)
	if err != nil {
		return err
	}
	// The enumeration may have consumed the deadline; observe it before
	// spawning helpers.
	if err := ec.checkNow(); err != nil {
		return err
	}
	n := (len(ids) + morselSize - 1) / morselSize
	m := &morselRun{plan: plan, ids: ids, c: c,
		parked: make([][]orderedRow, n), done: make([]bool, n), counts: make([]int64, n)}
	m.turn = sync.NewCond(&m.mu)
	// The caller works on the statement's own frame. A helper gets a
	// private execCtx: the deadline tick counter and the operator stats
	// frame must not be shared (frames are merged below, after the
	// join); the accountant and context are shared, since budgets govern
	// the statement, not the worker.
	helpers := make([]*execCtx, max(min(workers, n)-1, 0))
	var wg sync.WaitGroup
	for i := range helpers {
		wec := &execCtx{db: ec.db, ctx: ec.ctx, deadline: ec.deadline,
			acct: ec.acct, sql: ec.sql, args: ec.args,
			stats: make(opFrame, len(ec.stats)), timing: ec.timing,
			batch: ec.batch}
		helpers[i] = wec
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.drain(wec); err != nil {
				m.fail(err)
			}
		}()
	}
	if err := m.drain(ec); err != nil {
		m.fail(err)
	}
	wg.Wait()
	// The helpers have joined, so every frame slot is back to a single
	// writer.
	for _, h := range helpers {
		ec.stats.mergeFrom(h.stats)
	}
	for _, k := range m.counts {
		c.count += k
	}
	return m.err
}

// morselRun is one select's fan-out. Its rows reach the collector in
// morsel order: head is the lowest morsel not yet handed over whole.
// The worker running the head morsel feeds the collector as it
// projects rows; a worker ahead of it buffers its rows — under a
// budget only while accountant.hold can book them — and beyond that
// waits for its turn. A morsel finished ahead of the head is parked
// (its rows stay booked); whoever finishes the
// head morsel feeds every parked morsel that follows it. So one
// goroutine at most touches the collector at a time, and it sees the
// rows in the serial executor's order.
type morselRun struct {
	plan    *selectPlan
	ids     []int64
	c       *collector
	next    atomic.Int64 // the next morsel to claim
	head    atomic.Int64 // stored under mu
	aborted atomic.Bool
	mu      sync.Mutex
	turn    *sync.Cond // on mu; broadcast when head moves or the run aborts
	//guardedby:mu
	parked [][]orderedRow // a finished morsel's unfed rows, by morsel
	//guardedby:mu
	done []bool
	//guardedby:mu
	err    error   // the run's first failure
	counts []int64 // COUNT(*) per morsel, each written by its worker
}

// drain is one worker's claiming loop. It is the worker-side statement
// boundary: a panic inside any morsel converts to *InternalError here
// (a helper's own deferred recover — the caller's cannot see it).
func (m *morselRun) drain(ec *execCtx) (err error) {
	defer guardPanics(ec.sql, &err)
	for k := int(m.next.Add(1)) - 1; k < len(m.done) && !m.aborted.Load(); k = int(m.next.Add(1)) - 1 {
		if err := failpoint.Inject("engine/morsel-claim"); err != nil {
			return err
		}
		// One unconditional deadline/cancellation check per claim: the
		// in-morsel tick counter only fires every 1024 rows, which a
		// worker draining a few small morsels never reaches.
		if err := ec.checkNow(); err != nil {
			return err
		}
		if err := m.runMorsel(ec, k); err != nil {
			return err
		}
	}
	return nil
}

// runMorsel drives morsel k's ids through the join pipeline in batches
// and hands its rows on in order.
func (m *morselRun) runMorsel(ec *execCtx, k int) error {
	var buf []orderedRow
	r := &stepRunner{ec: ec, plan: m.plan, e: env{}, batch: ec.batch, first: m.plan.firstFrom,
		emit: func(row, keys []Value) (bool, error) {
			switch {
			case m.aborted.Load():
				return false, nil
			case m.plan.countStar:
				m.counts[k]++
				return true, nil
			case m.head.Load() != int64(k):
				if !m.c.exact || ec.acct.hold(rowMemBytes(row, keys)) {
					buf = append(buf, orderedRow{row: row, keys: keys})
					return true, nil
				}
				if !m.awaitTurn(k) {
					return false, nil
				}
			}
			// k is the head: the rows it buffered go first.
			if err := m.feed(ec, buf); err != nil {
				return false, err
			}
			buf = nil
			return true, m.c.add(ec, row, keys)
		}}
	if err := r.runRoot(m.ids[k*morselSize : min((k+1)*morselSize, len(m.ids))]); err != nil || m.aborted.Load() {
		return err
	}
	return m.finish(ec, k, buf)
}

// awaitTurn blocks until morsel k is the head; false means the run
// aborted first.
func (m *morselRun) awaitTurn(k int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head.Load() != int64(k) && !m.aborted.Load() {
		m.turn.Wait()
	}
	return !m.aborted.Load()
}

// finish parks morsel k's unfed rows. When k is the head, its worker
// feeds them and every parked morsel after it, advancing head past
// each.
func (m *morselRun) finish(ec *execCtx, k int, rows []orderedRow) error {
	m.mu.Lock()
	mine := m.head.Load() == int64(k)
	if !mine {
		m.parked[k], m.done[k] = rows, true
	}
	m.mu.Unlock()
	for h := k; mine; h++ {
		// h is the head and finished: no other worker feeds the collector
		// until head moves on.
		if err := m.feed(ec, rows); err != nil {
			return err
		}
		m.mu.Lock()
		m.head.Store(int64(h + 1))
		m.turn.Broadcast()
		if mine = h+1 < len(m.done) && m.done[h+1]; mine {
			rows, m.parked[h+1] = m.parked[h+1], nil
		}
		m.mu.Unlock()
	}
	return nil
}

// feed hands held rows to the collector, in order, releasing each
// booking once the row is charged.
func (m *morselRun) feed(ec *execCtx, rows []orderedRow) error {
	for _, r := range rows {
		if err := m.c.add(ec, r.row, r.keys); err != nil {
			return err
		}
		if m.c.exact {
			ec.acct.release(rowMemBytes(r.row, r.keys))
		}
	}
	return nil
}

// fail records the run's first error and stops it: the workers claim
// no more morsels and stop at their next row.
func (m *morselRun) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.aborted.Store(true)
	m.turn.Broadcast()
	m.mu.Unlock()
}

// drivingIDs materializes the driving step's candidate row ids in the
// executor's canonical enumeration order, recording the enumeration
// against the driving scan's operator (the workers then only replay
// the materialized ids, so the scan is counted exactly once). At the
// top level the step's access expressions can only reference
// constants (no outer bindings), so enumeration under an empty env is
// exact.
func drivingIDs(ec *execCtx, plan *selectPlan) ([]int64, error) {
	st := ec.op(plan.phys.scans[0])
	st.open()
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	var ids []int64
	sc := ec.getScratch(ec.batch)
	err := forEachBatch(ec, env{}, plan.steps[0], st, sc, func(batch []int64) (bool, error) {
		st.rowsOutN(int64(len(batch)))
		ids = append(ids, batch...)
		return true, nil
	})
	ec.putScratch(sc)
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	return ids, err
}
