package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqlast"
)

// TestConcurrentReadQueries runs many queries in parallel against one
// database: read-only execution (including lazy hash-index builds)
// must be race-free and deterministic. Run under -race in CI.
func TestConcurrentReadQueries(t *testing.T) {
	db := fixtureDB(t)
	queries := []string{
		"SELECT F.id FROM F WHERE F.text = '2'",
		"SELECT C.id FROM B, C WHERE C.par = B.id AND B.id = 2 ORDER BY C.id",
		"SELECT F.id FROM B, F WHERE B.id = 2 AND F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF'",
		"SELECT B.id FROM B WHERE EXISTS (SELECT NULL FROM F WHERE F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF')",
		"SELECT COUNT(*) FROM G",
		"SELECT DISTINCT F.par FROM F",
		// Exercises the shared patternCache: concurrent planners race to
		// compile and publish the same matcher (fast/slow publication
		// must be safe under -race).
		"SELECT F.id FROM F WHERE REGEXP_LIKE(F.text, '^[0-9]+$') ORDER BY F.id",
	}
	want := make([][][]Value, len(queries))
	for i, q := range queries {
		res, err := runSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, q := range queries {
					res, err := runSQL(db, q)
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != len(want[i]) {
						errs <- errResult{q}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errResult struct{ q string }

func (e errResult) Error() string { return "nondeterministic result for " + e.q }

// TestConcurrentParallelQueries stresses the morsel executor itself
// under concurrency: many client goroutines each running parallel
// queries against one database, so worker pools, the shared plan
// cache, shared hash-join build sides, and the patternCache all
// overlap. Run under -race in CI.
func TestConcurrentParallelQueries(t *testing.T) {
	db := bigDB(t)
	queries := []string{
		"SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id",
		"SELECT DISTINCT i.path_id FROM item i ORDER BY i.path_id DESC",
		"SELECT COUNT(*) FROM item i WHERE i.val < 10",
		"SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id",
		"SELECT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.id",
		"SELECT i.id FROM item i WHERE REGEXP_LIKE(i.text, '^1[0-9]*$') ORDER BY i.id",
	}
	want := make([]*Result, len(queries))
	prepared := make([]*Prepared, len(queries))
	stmts := make([]sqlast.Statement, len(queries))
	for i, q := range queries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
		prepared[i] = db.PrepareStmt(st)
		res, err := prepared[i].RunWithOptionsContext(nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	db.forceWorkers = 4
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, q := range queries {
					// Alternate shared-Prepared and ad-hoc execution so both
					// plan-cache entry points run concurrently.
					var res *Result
					var err error
					if (g+rep)%2 == 0 {
						res, err = prepared[i].RunWithOptionsContext(nil, ExecOptions{})
					} else {
						res, err = db.RunWithOptionsContext(nil, stmts[i], ExecOptions{})
					}
					if err != nil {
						errs <- err
						return
					}
					if !equalResults(res, want[i]) {
						errs <- errResult{q}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentBudgetedQueries interleaves budget-limited and
// unlimited executions of the same statements from many goroutines:
// each statement's accountant is private, so one client's budget
// error must never leak into another's result. Run under -race in
// CI.
func TestConcurrentBudgetedQueries(t *testing.T) {
	db := bigDB(t)
	const q = "SELECT i.id, i.text FROM item i WHERE i.val > 50 ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 64)
	for _, workers := range []int{1, 8} {
		db.forceWorkers = workers
		runConcurrentBudgeted(db, st, q, want, errs)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// runConcurrentBudgeted is TestConcurrentBudgetedQueries' client mix:
// eight goroutines, ten statements each, a third of them unlimited.
func runConcurrentBudgeted(db *DB, st sqlast.Statement, q string, want *Result, errs chan<- error) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				var opts ExecOptions
				switch (g + rep) % 3 {
				case 0: // unlimited: must return the full result
					res, err := db.RunWithOptionsContext(nil, st, opts)
					if err != nil {
						errs <- err
						return
					}
					if !equalResults(res, want) {
						errs <- errResult{q}
						return
					}
				case 1: // memory budget: must fail with the typed error
					opts.MaxMemoryBytes = 64
					if _, err := db.RunWithOptionsContext(nil, st, opts); !errors.Is(err, ErrMemoryBudget) {
						errs <- fmt.Errorf("budgeted run: err = %v, want ErrMemoryBudget", err)
						return
					}
				case 2: // row budget
					opts.MaxRows = 2
					if _, err := db.RunWithOptionsContext(nil, st, opts); !errors.Is(err, ErrRowBudget) {
						errs <- fmt.Errorf("budgeted run: err = %v, want ErrRowBudget", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
