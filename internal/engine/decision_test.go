package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// TestMorselDecisionOnBenchmarkStatements pins where the executor
// decision falls on the Figure 3 statements' plans: the join-heavy ones
// — Q6 on both mappings and the Edge-like Q13 at the golden-rows scale,
// QD5 on both mappings at scale 1 (at 0.1 it drives 21 author rows) —
// run on morsel workers once GOMAXPROCS allows two; the point lookups
// (Q9, Q11, Q21, QD4) and the single-step scans (Q1–Q5) run serially,
// and at GOMAXPROCS 1 everything does.
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
		morsels bool
	}{
		{xm, "Q6", both, true},
		{xm, "Q13", edge, true},
		{dblp, "QD5", both, true},
		{xm, "Q9", both, false},
		{xm, "Q11", both, false},
		{xm, "Q21", both, false},
		{dblp, "QD4", both, false},
		{xm, "Q1", both, false},
		{xm, "Q2", both, false},
		{xm, "Q3", both, false},
		{xm, "Q4", both, false},
		{xm, "Q5", both, false},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range cases {
		q, ok := c.w.Query(c.id)
		if !ok {
			t.Fatalf("no query %s in %s", c.id, c.w.Name)
		}
		for _, sys := range c.systems {
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
				if c.morsels && procs == 2 {
					want = 2
				}
				for _, w := range workers {
					if w != want {
						t.Errorf("%s %s on %s: %v workers at GOMAXPROCS %d, want %d",
							c.w.Name, c.id, sys, workers, procs, want)
					}
				}
			}
			runtime.GOMAXPROCS(2)
		}
	}
}
