package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// TestMorselDecisionOnBenchmarkStatements pins where the executor
// decision falls on the Figure 3 statements, on the first plan and on
// the plan adaptive re-planning settles on: the join-heavy ones — Q6 on
// both mappings and the Edge-like Q13 at the golden-rows scale, QD5 on
// both mappings at scale 1 (at 0.1 it drives 21 author rows) — run on
// morsel workers once GOMAXPROCS allows two; the point lookups (Q9,
// Q11, Q21, QD4) and the single-step scans (Q1–Q5) run serially, and
// at GOMAXPROCS 1 everything does. The Edge-like QD5's first plan
// drives from fewer than a morsel of author rows; the re-plan that
// drives from the 6 000 inproceedings re-derives the decision with it.
func TestMorselDecisionOnBenchmarkStatements(t *testing.T) {
	xm, err := bench.NewXMark(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := bench.NewDBLP(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	both := []bench.System{bench.PPF, bench.EdgePPF}
	edge := []bench.System{bench.EdgePPF}
	cases := []struct {
		w       *bench.Workload
		id      string
		systems []bench.System
		// morsels is the decision on the first plan and on the settled one.
		morsels [2]bool
	}{
		{xm, "Q6", both, [2]bool{true, true}},
		{xm, "Q13", edge, [2]bool{true, true}},
		{dblp, "QD5", []bench.System{bench.PPF}, [2]bool{true, true}},
		{dblp, "QD5", edge, [2]bool{false, true}},
		{xm, "Q9", both, [2]bool{}},
		{xm, "Q11", both, [2]bool{}},
		{xm, "Q21", both, [2]bool{}},
		{dblp, "QD4", both, [2]bool{}},
		{xm, "Q1", both, [2]bool{}},
		{xm, "Q2", both, [2]bool{}},
		{xm, "Q3", both, [2]bool{}},
		{xm, "Q4", both, [2]bool{}},
		{xm, "Q5", both, [2]bool{}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for round, settled := range []bool{false, true} {
		for _, c := range cases {
			q, ok := c.w.Query(c.id)
			if !ok {
				t.Fatalf("no query %s in %s", c.id, c.w.Name)
			}
			for _, sys := range c.systems {
				if settled {
					for i := 0; i < 3; i++ {
						if _, err := c.w.Run(sys, q); err != nil {
							t.Fatal(err)
						}
					}
				}
				st, err := c.w.Translate(sys, q)
				if err != nil {
					t.Fatal(err)
				}
				db := sqlDB(c.w, sys)
				for _, procs := range []int{2, 1} {
					runtime.GOMAXPROCS(procs)
					workers, err := engine.MorselWorkers(db, st)
					if err != nil {
						t.Fatal(err)
					}
					want := 1
					if c.morsels[round] && procs == 2 {
						want = 2
					}
					for _, w := range workers {
						if w != want {
							t.Errorf("%s %s on %s (settled %v): %v workers at GOMAXPROCS %d, want %d",
								c.w.Name, c.id, sys, settled, workers, procs, want)
						}
					}
				}
				runtime.GOMAXPROCS(2)
			}
		}
	}
}
