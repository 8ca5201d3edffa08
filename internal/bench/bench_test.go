package bench

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestAllSystemsAgreeOnXMark is the central integration test: every
// benchmark query must return the oracle's node set on every system.
func TestAllSystemsAgreeOnXMark(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	w, err := NewXMark(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		n, err := w.Verify(q)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		t.Logf("%s: %d nodes", q.ID, n)
	}
}

func TestAllSystemsAgreeOnDBLP(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	w, err := NewDBLP(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		n, err := w.Verify(q)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		t.Logf("%s: %d nodes", q.ID, n)
	}
}

func TestSupportedMatrix(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Supported(Commercial, "Q1") {
		t.Error("commercial stand-in should report N/A for Q1, as in the paper")
	}
	if !w.Supported(Commercial, "Q23") || !w.Supported(Commercial, "QA") {
		t.Error("commercial stand-in should support Q23 and QA")
	}
	if !w.Supported(PPF, "Q1") {
		t.Error("PPF supports everything")
	}
	d, err := NewDBLP(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Supported(Commercial, "QD1") {
		t.Error("DBLP workload has no commercial restriction in the paper's table")
	}
}

func TestMeasure(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := w.Query("Q1")
	m := w.Measure(PPF, q, 3, 0)
	if m.ErrorMsg != "" || m.Nodes == 0 || m.Avg <= 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if m.Cell() == "N/A" || m.Cell() == "ERR" {
		t.Fatalf("cell = %s", m.Cell())
	}
	// Unsupported -> skipped.
	m = w.Measure(Commercial, q, 1, 0)
	if !m.Skipped || m.Cell() != "N/A" {
		t.Fatalf("commercial Q1 = %+v", m)
	}
	// Tiny budget forces a timeout marker.
	m = w.Measure(Accel, q, 1, time.Nanosecond)
	if !m.Timeout || m.Cell() != "~" {
		t.Fatalf("timeout cell = %+v", m)
	}
}

// TestMeasureReportsAllocs checks the allocation meter: SQL-based
// cells carry a positive allocations-per-repetition count.
func TestMeasureReportsAllocs(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := w.Query("Q1")
	m := w.Measure(PPF, q, 2, 0)
	if m.ErrorMsg != "" {
		t.Fatalf("measurement = %+v", m)
	}
	if m.AllocsPerOp <= 0 {
		t.Errorf("AllocsPerOp = %d, want > 0", m.AllocsPerOp)
	}
}

// TestParallelAgreesWithOracle runs the SQL-based systems at
// GOMAXPROCS 4, where the engine runs the statements it judges worth
// it on morsel workers, and checks the node sets against the native
// oracle — the same agreement bar the serial path must meet.
func TestParallelAgreesWithOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	w, err := NewXMark(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		want, err := w.OracleIDs(q)
		if err != nil {
			t.Fatalf("oracle %s: %v", q.ID, err)
		}
		for _, sys := range []System{PPF, EdgePPF, Accel} {
			got, err := w.Run(sys, q)
			if err != nil {
				t.Errorf("%s on %s (parallel): %v", sys, q.ID, err)
				continue
			}
			if !equalIDs(got, want) {
				t.Errorf("%s on %s (parallel): %d ids, oracle has %d (first diff: %s)",
					sys, q.ID, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// TestMeasureCacheHitRate checks that Measure routes repetitions
// through the engine plan cache: with the statement translated once,
// everything after the first planning should hit.
func TestMeasureCacheHitRate(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := w.Query("Q1")
	m := w.Measure(PPF, q, 4, 0)
	if m.ErrorMsg != "" {
		t.Fatalf("measurement = %+v", m)
	}
	// 5 executions (1 warm-up + 4 reps): at most the first can miss.
	if m.CacheHitRate < 0.79 {
		t.Errorf("CacheHitRate = %.2f, want >= 0.8", m.CacheHitRate)
	}
	// Non-SQL systems report no cache activity.
	m = w.Measure(Staircase, q, 2, 0)
	if m.CacheHitRate != 0 {
		t.Errorf("staircase CacheHitRate = %.2f, want 0", m.CacheHitRate)
	}
}

func TestQueryLookup(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Query("Q1"); !ok {
		t.Error("Q1 missing")
	}
	if _, ok := w.Query("nope"); ok {
		t.Error("bogus query found")
	}
}

// TestQD5UnderMemoryBudget: QD5's value join probes a hash on the
// author text built over the rows of the book-author path alone (the
// step's key set, engine/access.go), not over the whole column. On a
// fresh store, where the statement pays for every build it probes and
// for the distinct values its planner counts to estimate the join, it
// therefore fits a memory budget the whole-column build breaks: each
// budget below sits between the statement's peak with the restricted
// build and its peak with the whole-column one (DBLP scale 1, seed 42:
// 1 099 340 against 1 202 720 bytes schema-aware, 1 583 576 against
// 2 159 904 on the Edge mapping). The rows are the oracle's.
func TestQD5UnderMemoryBudget(t *testing.T) {
	for _, c := range []struct {
		sys    System
		budget int64
	}{{PPF, 1_130_000}, {EdgePPF, 1_900_000}} {
		w, err := NewDBLP(1, 42)
		if err != nil {
			t.Fatal(err)
		}
		q, ok := w.Query("QD5")
		if !ok {
			t.Fatal("no QD5")
		}
		w.MaxMemoryBytes = c.budget
		got, err := w.Run(c.sys, q)
		if err != nil {
			t.Fatalf("%s under a %d-byte budget: %v", c.sys, c.budget, err)
		}
		want, err := w.OracleIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, want) {
			t.Errorf("%s: %d ids, oracle has %d", c.sys, len(got), len(want))
		}
	}
}

// TestRunBudgetLimits checks the workload-level resource budgets
// reach the engine: a tiny row budget fails SQL-based systems with
// the typed error, and lifting it restores the oracle's result.
func TestRunBudgetLimits(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := w.Query("Q23")
	if !ok {
		t.Fatal("no Q23")
	}
	want, err := w.Run(PPF, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("Q23 returns %d nodes; need >= 2 for a meaningful row budget", len(want))
	}
	w.MaxRows = 1
	if _, err := w.Run(PPF, q); !errors.Is(err, engine.ErrRowBudget) {
		t.Fatalf("row-limited run: err = %v, want ErrRowBudget", err)
	}
	m := w.Measure(PPF, q, 1, 0)
	if m.ErrorMsg == "" {
		t.Error("Measure under exceeded budget did not report an error cell")
	}
	w.MaxRows = 0
	got, err := w.Run(PPF, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, want) {
		t.Fatal("result differs after lifting the budget")
	}
}
