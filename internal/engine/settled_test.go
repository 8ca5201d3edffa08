package engine_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// joinOrder renders a plan's join orders and access paths, one
// "alias(access kind)" per step, UNION branches separated by " | ".
func joinOrder(sh *engine.StmtShape) string {
	sel := func(s *engine.SelectShape) string {
		parts := make([]string, len(s.Steps))
		for i, st := range s.Steps {
			parts[i] = st.Alias + "(" + st.Access.Kind + ")"
		}
		return strings.Join(parts, ">")
	}
	if sh.Select != nil {
		return sel(sh.Select)
	}
	parts := make([]string, len(sh.Union.Branches))
	for i, b := range sh.Union.Branches {
		parts[i] = sel(b)
	}
	return strings.Join(parts, " | ")
}

// TestSettledPlansOnFig3 holds the data-driven planner to its own
// estimates and to the heuristic control on the Figure 3 statements,
// both workloads, both mappings. Once adaptive re-planning has had its
// runs — the first seeds the feedback, each re-plan takes one more, and
// one more measures the plan it settled on — no operator's estimate on
// the settled plan is off by more than the re-plan threshold, so the
// loop leaves nothing it would correct. The plan returns the native
// oracle's rows, and so does the plan of the same statement under
// ForceHeuristic, which may not look at the data. The synopsis must
// earn its place: it plans some join-heavy XMark statement in another
// order than the control does.
func TestSettledPlansOnFig3(t *testing.T) {
	xm, err := bench.NewXMark(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := bench.NewDBLP(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	joinHeavy := map[string]bool{"Q2": true, "Q3": true, "Q4": true, "Q6": true, "Q7": true, "Q13": true}
	var changed []string
	for _, w := range []*bench.Workload{xm, dblp} {
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			db := sqlDB(w, sys)
			orders := map[string]string{}
			for _, heuristic := range []bool{false, true} {
				engine.ForceHeuristic(db, heuristic)
				for _, q := range w.Queries {
					label := w.Name + " " + q.ID + " on " + string(sys)
					st, err := w.Translate(sys, q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					oracle, err := w.OracleIDs(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					runs := 1
					if !heuristic {
						runs = 1 + engine.MaxAdaptiveReplans + 1
					}
					var res *engine.Result
					var worst float64
					for i := 0; i < runs; i++ {
						if res, worst, err = engine.AnalyzeQError(db, st); err != nil {
							t.Fatalf("%s (heuristic %v): %v", label, heuristic, err)
						}
						if worst <= engine.ReplanQErrorThreshold {
							break
						}
					}
					if !heuristic && worst > engine.ReplanQErrorThreshold {
						t.Errorf("%s: the settled plan's worst q-error is %.2f, over %.1f", label, worst, engine.ReplanQErrorThreshold)
					}
					if got, want := rowsHash(res), rowsHash(idRows(oracle)); got != want {
						t.Errorf("%s (heuristic %v): rows %s, the oracle's are %s", label, heuristic, got, want)
					}
					sh, err := db.PlanShape(st)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !heuristic {
						orders[q.ID] = joinOrder(sh)
					} else if w == xm && joinHeavy[q.ID] && joinOrder(sh) != orders[q.ID] {
						changed = append(changed, label)
					}
				}
			}
			engine.ForceHeuristic(db, false)
		}
	}
	if len(changed) == 0 {
		t.Errorf("the synopsis planned no join-heavy XMark statement in another order than the heuristic control")
	}
	t.Logf("join orders the synopsis changed: %v", changed)
}

// TestAnalyzeQErrorIsTheFeedbackMeasure: the q-errors EXPLAIN ANALYZE
// reports are the ones adaptive re-planning acts on. For every Figure 3
// statement, both workloads and mappings, through the runs the loop
// takes to settle, the worst q-error of any operator's estimate equals
// the worst the re-planning check reads off the same execution —
// post-filter estimates included, so a plan the report calls settled is
// one the engine leaves alone.
func TestAnalyzeQErrorIsTheFeedbackMeasure(t *testing.T) {
	xm, err := bench.NewXMark(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := bench.NewDBLP(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*bench.Workload{xm, dblp} {
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			db := sqlDB(w, sys)
			for _, q := range w.Queries {
				label := w.Name + " " + q.ID + " on " + string(sys)
				st, err := w.Translate(sys, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for run := 1; run <= 1+engine.MaxAdaptiveReplans+1; run++ {
					_, worst, err := engine.AnalyzeQError(db, st)
					if err != nil {
						t.Fatalf("%s run %d: %v", label, run, err)
					}
					if fb := engine.FeedbackQError(db, st); worst != fb {
						t.Errorf("%s run %d: EXPLAIN ANALYZE's worst q-error is %.2f, re-planning reads %.2f", label, run, worst, fb)
					}
				}
			}
		}
	}
}
