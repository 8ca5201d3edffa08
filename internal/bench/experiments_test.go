package bench

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

func tinyOpts() Opts { return Opts{Reps: 1, Budget: 0, Verify: true} }

func TestFig3Table(t *testing.T) {
	w, err := NewXMark(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Fig3([]*Workload{w}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(w.Queries) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(w.Queries))
	}
	s := tb.String()
	if !strings.Contains(s, "Q1") || !strings.Contains(s, "Edge-like PPF") {
		t.Errorf("table rendering missing content:\n%s", s)
	}
}

func TestAppendixCTable(t *testing.T) {
	w, err := NewDBLP(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := AppendixC(w, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if len(tb.Headers) != 2+len(Systems) {
		t.Fatalf("headers = %v", tb.Headers)
	}
	// Every row should carry a cardinality and five cells.
	for _, r := range tb.Rows {
		if len(r) != len(tb.Headers) {
			t.Fatalf("ragged row %v", r)
		}
	}
}

func TestAblationTables(t *testing.T) {
	w, err := NewXMark(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := AblatePathFilter(w, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Rows) != len(w.Queries) {
		t.Fatalf("path-filter rows = %d", len(pf.Rows))
	}
	// The omission optimization must strictly reduce join counts for
	// at least some queries (e.g. the pure child paths).
	improved := false
	for _, r := range pf.Rows {
		if r[1] < r[2] {
			improved = true
		}
	}
	if !improved {
		t.Error("path-filter omission never reduced join counts")
	}
	fk, err := AblateFKJoin(w, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fk.Rows) != len(w.Queries) {
		t.Fatalf("fk rows = %d", len(fk.Rows))
	}
}

// TestAblationCellsShowFailures: an ablation times its statements
// through Measure's loop, so a statement that fails reads ERR and one
// over the budget "~" — never a time — and neither has a speedup.
func TestAblationCellsShowFailures(t *testing.T) {
	defer failpoint.Reset()
	w, err := NewXMark(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := w.Query("Q1")
	w.Queries = []Query{q}
	for _, ab := range []struct {
		name string
		run  func(*Workload, Opts) (*Table, error)
		on   int // the column of the first statement's time
	}{{"path filter", AblatePathFilter, 3}, {"fk join", AblateFKJoin, 1}} {
		// The first statement's first run fails.
		if err := failpoint.Enable("engine/batch-flush", failpoint.Return(errors.New("injected")).Times(1)); err != nil {
			t.Fatal(err)
		}
		tb, err := ab.run(w, tinyOpts())
		failpoint.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if row := tb.Rows[0]; row[ab.on] != "ERR" || row[ab.on+1] == "ERR" || row[len(row)-1] != "-" {
			t.Errorf("%s: row %v, want ERR for the failed statement, a time for the other, no speedup", ab.name, row)
		}
		over := tinyOpts()
		over.Budget = 1 // ns: every run is over it
		if tb, err = ab.run(w, over); err != nil {
			t.Fatal(err)
		}
		if row := tb.Rows[0]; row[ab.on] != "~" || row[ab.on+1] != "~" || row[len(row)-1] != "-" {
			t.Errorf("%s over budget: row %v, want ~ for both statements and no speedup", ab.name, row)
		}
	}
}

func TestExplainCheckTable(t *testing.T) {
	w, err := NewXMark(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ExplainCheck([]*Workload{w}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(w.Queries) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(w.Queries))
	}
	for _, r := range tb.Rows {
		if r[len(r)-1] != "ok" {
			t.Errorf("query %s failed the explain check: %v", r[0], r)
		}
	}
}

// TestCheckOperatorStats: every operator line needs its stats block,
// and a line with an estimate of an operator that ran its q-error.
func TestCheckOperatorStats(t *testing.T) {
	for _, tc := range []struct {
		plan string
		ok   bool
	}{
		{"scan a: full scan [loops=1 in=0 out=3 probes=0 time=1µs] est_rows=3 q=1.00\n" +
			"filter a: a.v IN ('[x]') [loops=1 in=3 out=1 probes=0 time=0s] est_rows=2 q=2.00\n" +
			"project: a.id [loops=0 in=1 out=1 probes=0 time=0s]\ntotal: rows=1 peak-mem=0B\n", true},
		{"union branch 1:\n  scan b: index lookup b_pk [loops=0 in=0 out=0 probes=0 time=0s] est_rows=1\n", true},
		{"filter a: a.v = 1 [loops=1 in=3 out=1 probes=0 time=0s] est_rows=2\n", false},
		{"filter a: a.v = '[loops=0 in=0 ]' [loops=4 in=3 out=1 probes=0 time=0s] est_rows=2\n", false},
		{"filter a: a.v = 1 [loops=0 in=3 out=1 probes=0 time=0s] est_rows=2\n", false},
		{"project: a.id\n", false},
	} {
		if err := checkOperatorStats(tc.plan); (err == nil) != tc.ok {
			t.Errorf("checkOperatorStats(%q) = %v, want ok %v", tc.plan, err, tc.ok)
		}
	}
}

func TestJoinCountsTable(t *testing.T) {
	w, err := NewXMark(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := JoinCounts(w)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central claim: for the long child path Q2, PPF joins
	// far fewer relations than the accelerator (one per step).
	var q2 []string
	for _, r := range tb.Rows {
		if r[0] == "Q2" {
			q2 = r
		}
	}
	if q2 == nil {
		t.Fatal("Q2 row missing")
	}
	if !(q2[1] < q2[4]) { // string compare fine for single digits vs larger
		t.Errorf("PPF should join fewer relations than the accelerator on Q2: %v", q2)
	}
}
