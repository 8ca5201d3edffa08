package engine_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// TestBatchSizeInvarianceOnFig3 runs the Figure 3 comparison's
// workload queries under the PPF and Edge-like PPF translations at
// every batch capacity ForceBatch can set, at GOMAXPROCS 1 and 4, and
// checks each node set against the native oracle: the capacity must
// never change a result.
func TestBatchSizeInvarianceOnFig3(t *testing.T) {
	w, err := bench.NewXMark(0.02, 42)
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
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			db := sqlDB(w, sys)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, bs := range sizes {
					engine.ForceBatch(db, bs)
					got, err := w.Run(sys, q)
					if err != nil {
						t.Errorf("%s on %s (bs=%d procs=%d): %v", sys, q.ID, bs, procs, err)
						continue
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s on %s (bs=%d procs=%d): %d ids, oracle has %d",
							sys, q.ID, bs, procs, len(got), len(want))
					}
				}
			}
			engine.ForceBatch(db, 0)
		}
	}
}
