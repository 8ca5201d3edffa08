package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// The chaos suite injects faults (budget overruns, failpoint errors,
// failpoint panics) into every access path of the executor, at every
// entry point, and asserts clean unwinding: the fault surfaces as a
// typed error, the serial and the morsel executor agree on the outcome
// class, no goroutines leak, no caches are poisoned, and the DB
// stays usable for the next statement. Run under -race via `make
// chaos`.

var errChaosHash = errors.New("chaos: injected hash-build failure")

// outcomeClass buckets an execution result for serial/morsel
// agreement checks.
func outcomeClass(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrMemoryBudget):
		return "mem-budget"
	case errors.Is(err, ErrRowBudget):
		return "row-budget"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, errChaosHash):
		return "hash-error"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "unexpected:" + err.Error()
	}
}

// waitNoGoroutineGrowth gives the runtime a moment to retire exiting
// goroutines, then asserts the count returned to the baseline.
func waitNoGoroutineGrowth(t *testing.T, before int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%s: goroutines leaked: %d before, %d after", label, before, after)
	}
}

// TestChaosMatrix runs every access-path query under every fault
// kind, serial and on 8 morsel workers, asserting that both agree on
// the typed outcome and that the database answers the unfaulted
// query correctly afterwards.
func TestChaosMatrix(t *testing.T) {
	db := bigDB(t)
	stmts := make([]sqlast.Statement, len(parallelQueries))
	baseline := make([]*Result, len(parallelQueries))
	for i, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmts[i] = st
		// Baseline run: caches the plan and builds hash sides, so the
		// faulted runs below exercise the executor, not the planner.
		res, err := run(db, st)
		if err != nil {
			t.Fatalf("%s: baseline: %v", q, err)
		}
		baseline[i] = res
	}
	faults := []struct {
		name string
		opts ExecOptions
		arm  func() error
	}{
		{name: "mem-budget", opts: ExecOptions{MaxMemoryBytes: 1}},
		{name: "row-budget", opts: ExecOptions{MaxRows: 1}},
		{name: "hash-build-error", arm: func() error {
			return failpoint.Enable("engine/hash-build", failpoint.Return(errChaosHash))
		}},
		{name: "hash-build-panic", arm: func() error {
			return failpoint.Enable("engine/hash-build", failpoint.Panic("chaos"))
		}},
	}
	defer failpoint.Reset()
	for _, f := range faults {
		for i, q := range parallelQueries {
			before := runtime.NumGoroutine()
			if f.arm != nil {
				if err := f.arm(); err != nil {
					t.Fatal(err)
				}
			}
			_, serialErr := execMode{ExecOptions: f.opts, workers: 1}.run(db, stmts[i])
			_, parErr := execMode{ExecOptions: f.opts, workers: 8}.run(db, stmts[i])
			failpoint.Reset()

			sc, pc := outcomeClass(t, serialErr), outcomeClass(t, parErr)
			if strings.HasPrefix(sc, "unexpected") || strings.HasPrefix(pc, "unexpected") {
				t.Errorf("%s / %s: untyped error (serial %v, parallel %v)", f.name, q, serialErr, parErr)
			}
			if sc != pc {
				t.Errorf("%s / %s: serial outcome %q, parallel outcome %q", f.name, q, sc, pc)
			}
			waitNoGoroutineGrowth(t, before, f.name+" / "+q)

			// The statement after the fault must see an intact engine.
			res, err := execMode{workers: 4}.run(db, stmts[i])
			if err != nil {
				t.Fatalf("%s / %s: DB unusable after fault: %v", f.name, q, err)
			}
			if !equalResults(res, baseline[i]) {
				t.Errorf("%s / %s: post-fault result differs from baseline", f.name, q)
			}
		}
	}
}

// TestChaosMorselClaimPanic injects a panic at the morsel-claim site:
// the worker's own panic boundary must convert it into *InternalError
// carrying the SQL text, with no goroutine leaks and no crash.
func TestChaosMorselClaimPanic(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Panic("worker down")); err != nil {
		t.Fatal(err)
	}
	_, err = execMode{workers: 8}.run(db, st)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v is not *InternalError", err)
	}
	if !strings.Contains(ie.SQL, "SELECT") || !strings.Contains(ie.SQL, "item") {
		t.Errorf("InternalError.SQL = %q, want the offending statement", ie.SQL)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError.Stack is empty")
	}
	failpoint.Reset()
	waitNoGoroutineGrowth(t, before, "morsel-claim panic")
	// Serial execution never claims morsels; it must be unaffected
	// even while the failpoint is armed.
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Panic("worker down")); err != nil {
		t.Fatal(err)
	}
	res, err := execMode{workers: 1}.run(db, st)
	if err != nil {
		t.Fatalf("serial run with morsel-claim armed: %v", err)
	}
	failpoint.Reset()
	if !equalResults(res, want) {
		t.Error("serial result changed under morsel-claim failpoint")
	}
	// And the engine serves the same query cleanly afterwards.
	res, err = execMode{workers: 8}.run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(res, want) {
		t.Error("post-panic parallel result differs")
	}
}

// TestChaosWriteStatementPanic injects a panic at wal/append under an
// INSERT sent through the statement boundary: the write path gets the
// same panic isolation as SELECT — a typed *InternalError carrying the
// statement, writeMu released, nothing committed — and the store keeps
// serving writes and reads.
func TestChaosWriteStatementPanic(t *testing.T) {
	db := seedPersistent(t, t.TempDir())
	defer db.Close()
	defer failpoint.Reset()
	before := dump(t, db)
	if err := failpoint.Enable("wal/append", failpoint.Panic("log down")); err != nil {
		t.Fatal(err)
	}
	_, err := db.ExecSQL(nil, "INSERT INTO T VALUES (100, X'0164', 'late')", ExecOptions{})
	failpoint.Reset()
	var ie *InternalError
	if !errors.Is(err, ErrInternal) || !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InternalError", err)
	}
	if !strings.Contains(ie.SQL, "INSERT INTO T") {
		t.Errorf("InternalError.SQL = %q, want the offending statement", ie.SQL)
	}
	if !db.writeMu.TryLock() {
		t.Fatal("writeMu still held after the panicking INSERT")
	}
	db.writeMu.Unlock()
	if got := dump(t, db); got != before {
		t.Fatalf("panicking INSERT left rows behind:\n got %s\nwant %s", got, before)
	}
	if _, err := db.ExecSQL(nil, "INSERT INTO T VALUES (100, X'0164', 'late')", ExecOptions{}); err != nil {
		t.Fatalf("post-panic INSERT: %v", err)
	}
	if got := dump(t, db); got != before+"100=late;" {
		t.Fatalf("post-panic content = %s, want %s", got, before+"100=late;")
	}
}

// TestChaosMorselClaimError checks the error-return path at the same
// site: one worker fails its claim, all workers drain, the statement
// reports the injected error.
func TestChaosMorselClaimError(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	st, err := sqlast.Parse("SELECT i.id FROM item i ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	boom := errors.New("claim refused")
	// Fire on the third claim so some morsels complete first.
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Return(boom).After(2)); err != nil {
		t.Fatal(err)
	}
	_, err = execMode{workers: 8}.run(db, st)
	failpoint.Reset()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected %v", err, boom)
	}
	waitNoGoroutineGrowth(t, before, "morsel-claim error")
}

// TestChaosPatternCompile injects a failure into the sanctioned
// pattern-compilation site and checks the error surfaces without
// poisoning the shared pattern cache.
func TestChaosPatternCompile(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	// A pattern no other test compiles, so the cache misses and the
	// failpoint actually fires.
	const q = "SELECT i.id FROM item i WHERE REGEXP_LIKE(i.text, '^7[0-4]?$') ORDER BY i.id"
	if err := failpoint.Enable("engine/pattern-compile", failpoint.Return(nil)); err != nil {
		t.Fatal(err)
	}
	_, err := runSQL(db, q)
	failpoint.Reset()
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The failed compile must not have cached anything for the
	// pattern; with the fault cleared the query runs.
	res, err := runSQL(db, q)
	if err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("post-fault pattern query returned no rows")
	}
}

// TestChaosPlanCacheInsert fails the plan-cache insert: the
// statement errors, nothing is cached, and the next run re-plans
// and caches normally.
func TestChaosPlanCacheInsert(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id FROM item i WHERE i.val = 77 ORDER BY i.id"
	sizeBefore := db.PlanCacheSize()
	if err := failpoint.Enable("engine/plancache-insert", failpoint.Return(nil)); err != nil {
		t.Fatal(err)
	}
	_, err := runSQL(db, q)
	failpoint.Reset()
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := db.PlanCacheSize(); got != sizeBefore {
		t.Errorf("plan cache grew across failed insert: %d -> %d", sizeBefore, got)
	}
	if _, err := runSQL(db, q); err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if got := db.PlanCacheSize(); got != sizeBefore+1 {
		t.Errorf("plan cache size = %d after clean run, want %d", got, sizeBefore+1)
	}
}

// TestChaosSleepWidensTimeout uses a Sleep failpoint at the morsel
// claim to guarantee a context deadline fires mid-drain.
func TestChaosSleepWidensTimeout(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	st, err := sqlast.Parse("SELECT i.id FROM item i ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Sleep(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = execMode{workers: 8}.runContext(ctx, db, st)
	failpoint.Reset()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitNoGoroutineGrowth(t, before, "sleep timeout")
}

// TestChaosDeadlineObservedAfterHashBuild pins the satellite fix: a
// deadline that expires during a serial hash-join build must be
// observed between the build and probe phases, not 1024 probe rows
// later. The build is forced (the cached side is dropped) and
// stalled past the deadline with a Sleep failpoint.
func TestChaosDeadlineObservedAfterHashBuild(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	// Plan (and plan-time hash builds) happen here.
	if _, err := run(db, st); err != nil {
		t.Fatal(err)
	}
	// Drop the cached build sides so execution must rebuild, and
	// stall that rebuild past the deadline.
	forgetBuilds(db)
	if err := failpoint.Enable("engine/hash-build", failpoint.Sleep(15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = db.RunWithOptionsContext(ctx, st, ExecOptions{})
	failpoint.Reset()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded observed at the build/probe boundary", err)
	}
	// The engine must still answer the query once the stall clears.
	if _, err := run(db, st); err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
}

// TestBudgetErrorsKeepDBUsable exhausts both budgets back to back
// and verifies the very next unlimited statement sees full, correct
// results — no partially-visible state, no stuck accounting.
func TestBudgetErrorsKeepDBUsable(t *testing.T) {
	db := bigDB(t)
	const q = "SELECT i.id, i.text FROM item i ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		if _, err := (execMode{ExecOptions: ExecOptions{MaxMemoryBytes: 64}, workers: workers}).run(db, st); !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("workers %d: err = %v, want ErrMemoryBudget", workers, err)
		}
		if _, err := (execMode{ExecOptions: ExecOptions{MaxRows: 3}, workers: workers}).run(db, st); !errors.Is(err, ErrRowBudget) {
			t.Fatalf("workers %d: err = %v, want ErrRowBudget", workers, err)
		}
		res, err := execMode{workers: workers}.run(db, st)
		if err != nil {
			t.Fatalf("workers %d: unlimited rerun: %v", workers, err)
		}
		if !equalResults(res, want) {
			t.Errorf("workers %d: post-budget result differs", workers)
		}
	}
}

// buildFaults are the faults the chaos tests inject into a build over a
// key set's rows, each with the outcome class it must surface as: an
// error or a panic at the build's failpoint, and a one-byte budget.
var buildFaults = []struct {
	name, class string
	opts        ExecOptions
	arm         func() error
}{
	{name: "hash-build-error", class: "hash-error", arm: func() error {
		return failpoint.Enable("engine/hash-build", failpoint.Return(errChaosHash))
	}},
	{name: "hash-build-panic", class: "internal", arm: func() error {
		return failpoint.Enable("engine/hash-build", failpoint.Panic("chaos"))
	}},
	{name: "mem-budget", class: "mem-budget", opts: ExecOptions{MaxMemoryBytes: 1}},
}

// forgetBuilds empties every table state's memo of hash builds and
// scoped runs, so the next statement is the one building.
func forgetBuilds(db *DB) {
	for _, name := range db.TableNames() {
		db.Table(name).state().builds.reset()
	}
}

// TestChaosRestrictedHashBuild faults the build of a hash join over a
// key set's rows (the QD5 forms) with the memo emptied first, so the
// faulted statement is the one building: an injected error or panic, or
// a memory budget the build breaks, must surface as its typed error on
// either executor, leak no goroutine and publish no build — the memo
// stays empty, and the next statement builds and answers correctly.
func TestChaosRestrictedHashBuild(t *testing.T) {
	defer failpoint.Reset()
	db := bigDB(t)
	for _, q := range restrictedQueries {
		st := sqlast.MustParse(q)
		want, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		table := "au"
		if strings.Contains(q, "FROM item a,") {
			table = "item"
		}
		for _, f := range buildFaults {
			for _, workers := range []int{1, 8} {
				forgetBuilds(db)
				before := runtime.NumGoroutine()
				if f.arm != nil {
					if err := f.arm(); err != nil {
						t.Fatal(err)
					}
				}
				_, err := execMode{ExecOptions: f.opts, workers: workers}.run(db, st)
				failpoint.Reset()
				if got := outcomeClass(t, err); got != f.class {
					t.Errorf("%s, %d workers, %s: outcome %q (%v), want %q", f.name, workers, table, got, err, f.class)
				}
				waitNoGoroutineGrowth(t, before, f.name)
				if _, scoped := builds(db, table); len(scoped) != 0 {
					t.Errorf("%s, %d workers: the faulted statement published %d restricted builds", f.name, workers, len(scoped))
				}
				res, err := execMode{workers: workers}.run(db, st)
				if err != nil {
					t.Fatalf("%s, %d workers: after the fault: %v", f.name, workers, err)
				}
				if !equalResults(res, want) {
					t.Errorf("%s, %d workers: rows after the fault differ", f.name, workers)
				}
				if _, scoped := builds(db, table); len(scoped) != 1 {
					t.Errorf("%s, %d workers: %d restricted builds after a clean run, want 1", f.name, workers, len(scoped))
				}
			}
		}
	}
}

// forgetPlans drops db's cached plans, so the next statement compiles.
func forgetPlans(db *DB) { ForceHeuristic(db, db.forceHeuristic) }

// TestChaosPlanTimeBuild faults the entry the planner builds to
// estimate a value join over a key set's rows (the QD5 forms, the
// distinct values accessEstimate reads the join's fan-out off) on a
// compile the faulted statement itself triggers: the plan cache and the
// memo are emptied first. That entry answers to the compiling statement
// as the executor's builds do: an injected error surfaces as itself and
// a panic as *InternalError, a context already past its deadline stops
// the compile before a row is walked, and none of them publishes an
// entry; the entry counts in the statement's PeakMemBytes, and a budget
// that holds everything else the statement materializes is broken by
// it. After each fault the next statement answers correctly.
func TestChaosPlanTimeBuild(t *testing.T) {
	defer failpoint.Reset()
	db := bigDB(t)
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, q := range restrictedQueries {
		st := sqlast.MustParse(q)
		want, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		table := "au"
		if strings.Contains(q, "FROM item a,") {
			table = "item"
		}
		// With the plan cached, the statement charges everything it
		// materializes but the plan-time entries.
		forgetBuilds(db)
		cached, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			forgetBuilds(db)
			forgetPlans(db)
			fresh, err := execMode{workers: workers}.run(db, st)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.PeakMemBytes <= cached.PeakMemBytes {
				t.Errorf("%d workers, %s: a compiling run peaked at %d bytes, a cached-plan run at %d: the plan-time entries went uncharged",
					workers, table, fresh.PeakMemBytes, cached.PeakMemBytes)
			}
		}
		faults := []struct {
			name, class string
			ctx         context.Context
			opts        ExecOptions
			arm         func() error
		}{
			{name: "hash-build-error", class: "hash-error", arm: buildFaults[0].arm},
			{name: "hash-build-panic", class: "internal", arm: buildFaults[1].arm},
			{name: "expired-deadline", class: "deadline", ctx: expired},
			{name: "mem-budget", class: "mem-budget", opts: ExecOptions{MaxMemoryBytes: cached.PeakMemBytes}},
		}
		for _, f := range faults {
			for _, workers := range []int{1, 8} {
				forgetBuilds(db)
				forgetPlans(db)
				before := runtime.NumGoroutine()
				if f.arm != nil {
					if err := f.arm(); err != nil {
						t.Fatal(err)
					}
				}
				_, err := execMode{ExecOptions: f.opts, workers: workers}.runContext(f.ctx, db, st)
				failpoint.Reset()
				if got := outcomeClass(t, err); got != f.class {
					t.Errorf("%s, %d workers, %s: outcome %q (%v), want %q", f.name, workers, table, got, err, f.class)
				}
				waitNoGoroutineGrowth(t, before, f.name)
				// An entry within the budget is published like the
				// executor's builds; only the budget's own fault may
				// leave one.
				if n := db.Table(table).state().builds.len(); f.opts.MaxMemoryBytes == 0 && n != 0 {
					t.Errorf("%s, %d workers: the faulted compile published %d builds", f.name, workers, n)
				}
				res, err := execMode{workers: workers}.run(db, st)
				if err != nil {
					t.Fatalf("%s, %d workers: after the fault: %v", f.name, workers, err)
				}
				if !equalResults(res, want) {
					t.Errorf("%s, %d workers: rows after the fault differ", f.name, workers)
				}
			}
		}
	}
}

// TestChaosScopedRun faults the build of the scoped runs the Edge Dewey
// forms run over, with the memo emptied first: an injected error or
// panic, or a budget the build breaks, must surface as its typed error
// on either executor, leak no goroutine and publish no run, and the next
// statement builds the runs and answers correctly. The forms probe their
// key sets through nd's path_id index, so the first build a statement
// reaches is a run's.
func TestChaosScopedRun(t *testing.T) {
	defer failpoint.Reset()
	db := bigDB(t)
	for _, q := range scopedDeweyQueries {
		st := sqlast.MustParse(q)
		want, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range buildFaults {
			for _, workers := range []int{1, 8} {
				forgetBuilds(db)
				before := runtime.NumGoroutine()
				if f.arm != nil {
					if err := f.arm(); err != nil {
						t.Fatal(err)
					}
				}
				_, err := execMode{ExecOptions: f.opts, workers: workers}.run(db, st)
				failpoint.Reset()
				if got := outcomeClass(t, err); got != f.class {
					t.Errorf("%s, %d workers: outcome %q (%v), want %q\n%s", f.name, workers, got, err, f.class, q)
				}
				waitNoGoroutineGrowth(t, before, f.name)
				if rs := runs(db, "nd"); len(rs) != 0 {
					t.Errorf("%s, %d workers: the faulted statement published %d scoped runs\n%s", f.name, workers, len(rs), q)
				}
				res, err := execMode{workers: workers}.run(db, st)
				if err != nil {
					t.Fatalf("%s, %d workers: after the fault: %v", f.name, workers, err)
				}
				if !equalResults(res, want) {
					t.Errorf("%s, %d workers: rows after the fault differ\n%s", f.name, workers, q)
				}
				if rs := runs(db, "nd"); len(rs) == 0 {
					t.Errorf("%s, %d workers: no scoped run after a clean run\n%s", f.name, workers, q)
				}
			}
		}
	}
}
