package engine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// BenchmarkScopedRun prices a memo of scoped runs (tableState.builds'
// run kind) on the Figure 3 statements at goldenRowsScale: every
// statement of both workloads and mappings runs once, and an operation
// then makes every scoped run their memos hold — "merge" builds each
// again from its key set's posting lists, what a statement would pay
// without the memo, "walk" builds each testing every row of its index's
// run, as a column without an index on it makes it, and "hit" finds
// each in the memo. merge over hit is what deleting the run kind would
// cost each statement that reads one.
func BenchmarkScopedRun(b *testing.B) {
	var dbs []*engine.DB
	for _, mk := range []func(float64, int64) (*bench.Workload, error){bench.NewXMark, bench.NewDBLP} {
		w, err := mk(goldenRowsScale, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			for _, q := range w.Queries {
				if _, err := w.Run(sys, q); err != nil {
					b.Fatal(err)
				}
			}
			dbs = append(dbs, sqlDB(w, sys))
		}
	}
	for _, mode := range []string{"merge", "walk", "hit"} {
		b.Run(mode, func(b *testing.B) {
			var calls []func() error
			runs := 0
			for _, db := range dbs {
				call, n := engine.ScopedRuns(db, mode)
				calls, runs = append(calls, call), runs+n
			}
			if runs == 0 {
				b.Fatal("the statements left no scoped run in a memo")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, call := range calls {
					if err := call(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(runs), "runs")
		})
	}
}
