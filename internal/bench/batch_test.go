package bench

import (
	"runtime"
	"testing"

	"repro/internal/engine"
)

// TestBatchSizeInvarianceOnFig3 runs the Figure 3 comparison's
// workload queries under the PPF and Edge-like PPF translations at
// every batch size, at GOMAXPROCS 1 and 4, and checks each node set
// against the native oracle and against the other batch sizes: the
// engine's BatchSize knob must never change a result.
func TestBatchSizeInvarianceOnFig3(t *testing.T) {
	w, err := NewXMark(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sizes := []int{1, 2, 7, 256, 1024}
	for _, q := range w.Queries {
		want, err := w.OracleIDs(q)
		if err != nil {
			t.Fatalf("oracle %s: %v", q.ID, err)
		}
		for _, sys := range []System{PPF, EdgePPF} {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, bs := range sizes {
					w.BatchSize = bs
					got, err := w.Run(sys, q)
					if err != nil {
						t.Errorf("%s on %s (bs=%d procs=%d): %v", sys, q.ID, bs, procs, err)
						continue
					}
					if !equalIDs(got, want) {
						t.Errorf("%s on %s (bs=%d procs=%d): %d ids, oracle has %d (first diff: %s)",
							sys, q.ID, bs, procs, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
	}
	w.BatchSize = 0
}

// TestMeasureReportsAllocsAndBatch checks the new measurement fields:
// SQL-based cells carry the effective batch size and a positive
// allocation meter; non-SQL cells report no batch size.
func TestMeasureReportsAllocsAndBatch(t *testing.T) {
	w, err := NewXMark(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := w.Query("Q1")
	m := w.Measure(PPF, q, 2, 0)
	if m.ErrorMsg != "" {
		t.Fatalf("measurement = %+v", m)
	}
	if m.BatchSize != engine.DefaultBatchSize {
		t.Errorf("BatchSize = %d, want engine default %d", m.BatchSize, engine.DefaultBatchSize)
	}
	if m.AllocsPerOp <= 0 {
		t.Errorf("AllocsPerOp = %d, want > 0", m.AllocsPerOp)
	}
	w.BatchSize = 7
	m = w.Measure(PPF, q, 1, 0)
	if m.BatchSize != 7 {
		t.Errorf("BatchSize = %d, want the workload's 7", m.BatchSize)
	}
	w.BatchSize = 0
	m = w.Measure(Staircase, q, 1, 0)
	if m.BatchSize != 0 {
		t.Errorf("staircase BatchSize = %d, want 0", m.BatchSize)
	}
}
