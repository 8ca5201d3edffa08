package engine_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/sqlast"
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

// TestFirstPlansOnFig3 holds the data-driven planner to the oracle and
// to the heuristic control on the Figure 3 statements, both workloads,
// both mappings, at scale 0.02. The first plan returns the native
// oracle's rows, and so does the plan of the same statement under
// ForceHeuristic, which may not look at the data. The synopsis must earn
// its place: it plans some join-heavy XMark statement in another order
// than the control does. Each first plan's worst q-error — the largest
// of its operators' estimates against the first run, as EXPLAIN ANALYZE
// reports them — is committed in testdata/first_plan_qerror.txt
// (-update rewrites it), so a planner change shows what it does to
// estimate quality as a diff of that file.
func TestFirstPlansOnFig3(t *testing.T) {
	xm, err := bench.NewXMark(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := bench.NewDBLP(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	joinHeavy := map[string]bool{"Q2": true, "Q3": true, "Q4": true, "Q6": true, "Q7": true, "Q13": true}
	var changed, qerrors []string
	for _, w := range []*bench.Workload{xm, dblp} {
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			db := sqlDB(w, sys)
			orders := map[string]string{}
			for _, heuristic := range []bool{false, true} {
				engine.ForceHeuristic(db, heuristic)
				for _, q := range w.Queries {
					label := goldenLabel(w, q, sys)
					st, err := w.Translate(sys, q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					oracle, err := w.OracleIDs(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res, worst, err := engine.AnalyzeQError(db, st)
					if err != nil {
						t.Fatalf("%s (heuristic %v): %v", label, heuristic, err)
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
						qerrors = append(qerrors, fmt.Sprintf("%s %.2f", label, worst))
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
	sort.Strings(qerrors)

	golden := filepath.Join("testdata", "first_plan_qerror.txt")
	if updating() {
		if err := os.WriteFile(golden, []byte(strings.Join(qerrors, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/engine -run TestFirstPlansOnFig3 -update)", err)
	}
	defer f.Close()
	var committed []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		committed = append(committed, sc.Text())
	}
	if strings.Join(committed, "\n") != strings.Join(qerrors, "\n") {
		t.Errorf("first-plan q-errors differ from %s:\n got %s\nwant %s", golden,
			strings.Join(qerrors, "\n     "), strings.Join(committed, "\n     "))
	}
}

// skewDB is the case a feedback loop would re-plan: A's k-histogram is
// filled to synopsis.HistCap with singletons, then 1000 more singletons
// and 1000 copies of k=5000 go to the overflow, so the synopsis
// estimates k=5000 at about one row while A holds 1000. j is unique per
// row except that the heavy rows carry j = 0..999, overlapping B's
// j = 0..9.
func skewDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	a, err := db.CreateTable("A", engine.Column{Name: "j", Type: engine.TInt}, engine.Column{Name: "k", Type: engine.TInt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateIndex("A_j", "j"); err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("B", engine.Column{Name: "j", Type: engine.TInt}, engine.Column{Name: "tag", Type: engine.TText})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for i := 0; i < 1024; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(10000 + i)), engine.NewInt(int64(i))})
	}
	for i := 0; i < 1000; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(20000 + i)), engine.NewInt(int64(2000 + i))})
	}
	for i := 0; i < 1000; i++ {
		rows = append(rows, []engine.Value{engine.NewInt(int64(i)), engine.NewInt(5000)})
	}
	if _, err := a.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	var brows [][]engine.Value
	for i := 0; i < 10; i++ {
		brows = append(brows, []engine.Value{engine.NewInt(int64(i)), engine.NewText(fmt.Sprintf("b%d", i))})
	}
	if _, err := b.InsertBatch(brows); err != nil {
		t.Fatal(err)
	}
	return db
}

// rowsText renders every row of a result, in order.
func rowsText(res *engine.Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOnePlanPerStatement: a cached plan depends on the statement, the
// snapshot and the compiling call's arguments only, and no execution
// changes it. For the golden statements — the Figure 3 statements and
// the six ad-hoc templates, both mappings, at goldenRowsScale — and for
// skewDB's join, whose first run refutes its estimate for A, EXPLAIN
// after four executions is byte-identical to EXPLAIN before the first,
// every step's estimate comes from the synopsis or a named default, and
// every execution returns the first one's rows.
func TestOnePlanPerStatement(t *testing.T) {
	type stmt struct {
		label string
		db    *engine.DB
		st    sqlast.Statement
	}
	var stmts []stmt
	xm, err := bench.NewXMark(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	xm.Queries = append(xm.Queries, adhocQueries...)
	dblp, err := bench.NewDBLP(goldenRowsScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*bench.Workload{xm, dblp} {
		for _, sys := range []bench.System{bench.PPF, bench.EdgePPF} {
			for _, q := range w.Queries {
				st, err := w.Translate(sys, q)
				if err != nil {
					t.Fatal(err)
				}
				stmts = append(stmts, stmt{goldenLabel(w, q, sys), sqlDB(w, sys), st})
			}
		}
	}
	if len(stmts) != 56 {
		t.Fatalf("%d golden statements, want 56", len(stmts))
	}
	skew := stmt{"skew", skewDB(t), sqlast.MustParse("SELECT A.j, B.tag FROM A, B WHERE A.k = 5000 AND A.j = B.j")}
	stmts = append(stmts, skew)

	var checkSteps func(label string, sel *engine.SelectShape)
	checkSteps = func(label string, sel *engine.SelectShape) {
		for _, s := range sel.Steps {
			if s.EstSource != engine.EstSynopsis && s.EstSource != engine.EstDefault {
				t.Errorf("%s: step %s estimates from %q", label, s.Alias, s.EstSource)
			}
		}
		for _, sub := range sel.Subplans {
			checkSteps(label, sub.Select)
		}
	}
	for _, s := range stmts {
		before, err := s.db.Explain(s.st)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		var first string
		for run := 1; run <= 4; run++ {
			res, worst, err := engine.AnalyzeQError(s.db, s.st)
			if err != nil {
				t.Fatalf("%s run %d: %v", s.label, run, err)
			}
			if run == 1 {
				first = rowsText(res)
				if s.label == skew.label && worst <= 2 {
					t.Fatalf("%s: the first run's worst q-error is %.2f: the fixture no longer mis-estimates", s.label, worst)
				}
			} else if rowsText(res) != first {
				t.Errorf("%s run %d: rows differ from the first run's", s.label, run)
			}
		}
		after, err := s.db.Explain(s.st)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if after != before {
			t.Errorf("%s: the plan changed after four executions:\n%s\nwas:\n%s", s.label, after, before)
		}
		sh, err := s.db.PlanShape(s.st)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		if sh.Select != nil {
			checkSteps(s.label, sh.Select)
		} else {
			for _, b := range sh.Union.Branches {
				checkSteps(s.label, b)
			}
		}
	}
}
