package engine

import (
	"math"

	"repro/internal/sqlast"
)

// MorselWorkers hands the executor decision to the engine's external
// tests: for each top-level select of st (one, or one per UNION
// branch), how many workers may run it under the current GOMAXPROCS,
// 1 meaning the serial executor.
func MorselWorkers(db *DB, st sqlast.Statement) ([]int, error) {
	_, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		return nil, err
	}
	plans := []*selectPlan{cs.sel}
	if cs.union != nil {
		plans = cs.union.branches
	}
	out := make([]int, len(plans))
	for i, p := range plans {
		out[i] = db.morselWorkers(p)
	}
	return out, nil
}

// ForceBatch hands DB.forceBatch to the engine's external tests: every
// statement run on db after it uses row-id batches of capacity n (0
// restores batchCapacity).
func ForceBatch(db *DB, n int) { db.forceBatch = n }

// ForceHeuristic hands DB.forceHeuristic to the engine's tests: every
// statement planned on db after it plans without looking at the data
// (v) or with it (!v). It drops the plans db has cached, so no plan of
// the other mode is served after the switch.
func ForceHeuristic(db *DB, v bool) {
	db.forceHeuristic = v
	db.plans.mu.Lock()
	db.plans.lru, db.plans.byKey = nil, nil
	db.plans.mu.Unlock()
}

// opReport is one operator's estimate-vs-observed record from an
// analyzeReport run: the line EXPLAIN ANALYZE renders for it, taken
// apart for the engine's tests.
type opReport struct {
	Label string
	// Kind classifies the operator ("scan", "filter", "project",
	// "count", "distinct", "sort", "union", "subplan") so tests can pick
	// operators out without parsing labels. Reports arrive in render
	// order: a step's filter immediately follows its scan.
	Kind string
	// EstRows is the planner's per-loop output estimate, valid when
	// HasEst (scans and filters carry estimates; projections, sorts and
	// union machinery do not).
	EstRows float64
	HasEst  bool
	Loops   int64
	RowsOut int64
	// QError is selectPlan.qErrors' measure of EstRows against the run,
	// 0 when the operator has no estimate or never ran.
	QError float64
}

// analyzeReport executes the statement and returns the per-operator
// estimate/observation records in render order, plus the result.
func (db *DB) analyzeReport(st sqlast.Statement, opts ExecOptions) ([]opReport, *Result, error) {
	key, cs, res, frame, err := db.analyze(nil, st, nil, opts, false)
	if err != nil {
		return nil, nil, err
	}
	lines, err := explainLines(cs, key, frame)
	if err != nil {
		return nil, nil, err
	}
	var reports []opReport
	for _, l := range lines {
		if n := l.node; n != nil {
			reports = append(reports, opReport{Label: l.text, Kind: n.kind.String(), EstRows: l.est, HasEst: l.hasEst,
				Loops: frame[n.id].loops, RowsOut: frame[n.id].rowsOut, QError: l.q})
		}
	}
	return reports, res, nil
}

// AnalyzeQError runs st on db and returns the result with the worst
// q-error of any operator's estimate against what the run observed (1
// when nothing carrying an estimate ran).
func AnalyzeQError(db *DB, st sqlast.Statement) (*Result, float64, error) {
	reports, res, err := db.analyzeReport(st, ExecOptions{})
	if err != nil {
		return nil, 0, err
	}
	worst := 1.0
	for _, r := range reports {
		if r.HasEst && r.Loops > 0 {
			worst = math.Max(worst, r.QError)
		}
	}
	return res, worst, nil
}

// MemoCap and PatternCacheCap hand the memo bounds to the engine's
// external tests.
const (
	MemoCap         = maxResolveMemo
	PatternCacheCap = patternCacheCap
)

// ResetPatternCache empties the process-wide pattern memo.
func ResetPatternCache() { patternCache.reset() }

// MemoLoad is what one table state holds in its memos: the entries of
// each memo, and of each kind within it. State identifies the state.
type MemoLoad struct {
	State                            any
	Builds, Resolved                 int
	Hashes, ScopedHashes, ScopedRuns int
	Distinct                         int
	KeySets, PairSets                int
}

// MemoLoads hands the engine's external tests the memo load of every
// table's current state in db, by table name.
func MemoLoads(db *DB) map[string]MemoLoad {
	out := map[string]MemoLoad{}
	snap := db.loadSnap()
	for _, name := range snap.names {
		st := snap.stateOf(snap.table(name))
		l := MemoLoad{State: st}
		for k := range st.builds.entries() {
			l.Builds++
			switch {
			case k.distinct:
				l.Distinct++
			case k.run != nil:
				l.ScopedRuns++
			case k.in.keys == nil:
				l.Hashes++
			default:
				l.ScopedHashes++
			}
		}
		for _, rs := range st.resolved.entries() {
			l.Resolved++
			if rs.keys != nil {
				l.KeySets++
			} else {
				l.PairSets++
			}
		}
		out[name] = l
	}
	return out
}

// ScopedRuns returns a call that makes, once each, the scoped runs the
// memos of db's current states hold, and how many there are. mode
// "merge" builds each again from its key set's posting lists, on a copy
// of its state with empty memos, as a statement would if the memo kept
// no runs; "walk" does so on a copy without the index on the key set's
// column, testing every row of the index's run; any other finds each in
// the memo.
func ScopedRuns(db *DB, mode string) (func() error, int) {
	type entry struct {
		st *tableState
		k  buildKey
	}
	var runs []entry
	snap := db.loadSnap()
	for _, st := range snap.states {
		for k := range st.builds.entries() {
			if k.run != nil {
				runs = append(runs, entry{st, k})
			}
		}
	}
	ac := newAccountant(0, 0)
	return func() error {
		for _, r := range runs {
			st := r.st
			switch mode {
			case "merge":
				st = newTableState()
				st.n, st.cols, st.syn, st.indexes = r.st.n, r.st.cols, r.st.syn, r.st.indexes
			case "walk":
				st = withoutIndexOn(r.st, r.k.in.col)
			}
			if _, _, _, err := st.build(r.k, ac); err != nil {
				return err
			}
		}
		return nil
	}, len(runs)
}
