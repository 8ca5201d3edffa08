package engine

import "repro/internal/sqlast"

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
