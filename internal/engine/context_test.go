package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlast"
)

// TestRunContextCancel checks that cancelling the statement context
// stops the serial and the morsel executor with ctx.Err(), leaking no
// goroutines, independently of any wall-clock Timeout.
func TestRunContextCancel(t *testing.T) {
	db := bigDB(t)
	// A non-equi self-join: enough work that cancellation always
	// lands mid-execution.
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		db.forceWorkers = workers
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		_, err := db.RunWithOptionsContext(ctx, st, ExecOptions{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		waitGoroutines(t, before)
		// The next statement must run normally.
		if _, err := db.RunWithOptionsContext(context.Background(), st, ExecOptions{}); err != nil {
			t.Fatalf("workers %d: post-cancel run: %v", workers, err)
		}
	}
}

// TestRunContextDeadline checks that a context deadline behaves like
// Timeout, surfacing context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	db := bigDB(t)
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	db.forceWorkers = 8
	_, err = db.RunWithOptionsContext(ctx, st, ExecOptions{})
	// The cancellation check sees ctx.Err(); the wall-clock check may
	// win the race and report ErrTimeout (the ctx deadline is merged
	// into the execCtx deadline). Either typed error is correct.
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want context.DeadlineExceeded or ErrTimeout", err)
	}
}

// TestRunContextExecSQL checks the string entry point honors
// cancellation for every statement kind: a cancelled SELECT returns
// ctx.Err(), and a cancelled INSERT returns it without committing.
func TestRunContextExecSQL(t *testing.T) {
	db := fixtureDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecSQL(ctx, "SELECT F.id FROM F ORDER BY F.id", ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SELECT: err = %v, want context.Canceled", err)
	}
	before := len(db.Table("paths").Rows())
	if _, err := db.ExecSQL(ctx, "INSERT INTO paths VALUES (99, '/Z')", ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("INSERT: err = %v, want context.Canceled", err)
	}
	if got := len(db.Table("paths").Rows()); got != before {
		t.Fatalf("cancelled INSERT committed: %d rows, want %d", got, before)
	}
	if _, err := db.ExecSQL(context.Background(), "INSERT INTO paths VALUES (99, '/Z')", ExecOptions{}); err != nil {
		t.Fatalf("post-cancel INSERT: %v", err)
	}
}

// TestPreparedRunContext checks the prepared-statement entry point
// honors cancellation too.
func TestPreparedRunContext(t *testing.T) {
	db := bigDB(t)
	p := mustPrepare(t, db, "SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before execution starts
	if _, err := p.RunWithOptionsContext(ctx, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := p.RunWithOptionsContext(context.Background(), ExecOptions{}); err != nil {
		t.Fatalf("post-cancel run: %v", err)
	}
}

// waitGoroutines waits for the goroutine count to return to the
// baseline, failing after 2s of sustained growth.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
