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
	_, cs, err := db.compile(st, nil)
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

// MaxAdaptiveReplans and ReplanQErrorThreshold hand the adaptive
// re-planning bounds to the engine's external tests.
const (
	MaxAdaptiveReplans    = maxAdaptiveReplans
	ReplanQErrorThreshold = replanQErrorThreshold
)

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
