package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// TestExplainGolden pins the EXPLAIN rendering of one representative
// query per access-path kind (full scan, index point lookup, Dewey
// descendant range, ancestor prefix probe). The shapes mirror the
// paper's Figure 1 document: the descendant query is the PPF
// Dewey-interval join, the ancestor query its prefix-probe inverse.
func TestExplainGolden(t *testing.T) {
	db := fixtureDB(t)
	cases := []struct {
		name, sql, want string
	}{
		{
			name: "full scan",
			sql:  "SELECT a.id FROM A a",
			want: "scan a: full scan est_rows=1\n" +
				"project: a.id\n",
		},
		{
			name: "index point lookup",
			sql:  "SELECT b.id FROM B b WHERE b.id = 2",
			want: "scan b: index lookup B_pk est_rows=1\n" +
				"filter b: b.id = 2 est_rows=1\n" +
				"project: b.id\n",
		},
		{
			name: "descendant Dewey range",
			sql: "SELECT d.id FROM C c, D d WHERE c.id = 3 AND " +
				"d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' ORDER BY d.id",
			want: "scan c: index lookup C_pk est_rows=1\n" +
				"filter c: c.id = 3 est_rows=1\n" +
				"scan d: index range scan (two-sided) D_dp est_rows=1\n" +
				"filter d: d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' est_rows=1\n" +
				"project: d.id\n" +
				"sort: d.id\n",
		},
		{
			name: "ancestor prefix probe",
			sql: "SELECT c.id FROM D d, C c WHERE d.id = 4 AND " +
				"d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' ORDER BY c.id DESC",
			want: "scan d: index lookup D_pk est_rows=1\n" +
				"filter d: d.id = 4 est_rows=1\n" +
				"scan c: index prefix lookups C_dp est_rows=2\n" +
				"filter c: d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' est_rows=2\n" +
				"project: c.id\n" +
				"sort: c.id DESC\n",
		},
		{
			name: "distinct over hash-joinable pair",
			sql:  "SELECT DISTINCT g.id FROM G g, B b WHERE g.par = b.id",
			want: "scan b: full scan est_rows=2\n" +
				"scan g: index lookup G_par est_rows=1\n" +
				"filter g: g.par = b.id est_rows=1\n" +
				"project: g.id\n" +
				"distinct\n",
		},
		// The implied properties have no operator lines of their own: the
		// proven order rides on the driving scan's line, the proven key
		// (and the first-match unwind it licenses) on the projection's,
		// and the distinct / sort lines are absent.
		{
			name: "distinct and order implied by the driving relation",
			sql:  "SELECT DISTINCT g.id, g.dewey_pos FROM G g ORDER BY g.dewey_pos",
			want: "scan g: full scan, rows in dewey_pos order est_rows=3\n" +
				"project: g.id, g.dewey_pos (distinct by g.id)\n",
		},
		{
			name: "existential join stopped at the first match",
			sql:  "SELECT DISTINCT b.id FROM B b, G g WHERE g.par = b.id ORDER BY b.id",
			want: "scan b: full scan, rows in id order est_rows=2\n" +
				"scan g: index lookup G_par est_rows=1\n" +
				"filter g: g.par = b.id est_rows=1\n" +
				"project: b.id (distinct by b.id, first match)\n",
		},
		// An unnested EXISTS has no line of its own either: its aliases are
		// scans marked existential, and the run of them that stops at the
		// first match is named on the projection's line — with the key
		// when the plan has one, by its first alias otherwise. A conjunct
		// that opens a subplan waits for a run of one candidate a binding
		// (g), not for one of two (c): the subplan would run once for each.
		// An OR conjunct among others is parenthesised: AND binds tighter.
		{
			name: "unnested EXISTS trailing under the key, an OR of subplans after it",
			sql: "SELECT DISTINCT b.id, b.dewey_pos FROM B b WHERE EXISTS (SELECT NULL FROM G g WHERE g.par = b.id) AND " +
				"(EXISTS (SELECT NULL FROM C c WHERE c.par = b.id) OR EXISTS (SELECT NULL FROM E e WHERE e.par = b.id)) ORDER BY b.dewey_pos",
			want: "scan b: full scan, rows in dewey_pos order est_rows=2\n" +
				"scan g: index lookup G_par, existential est_rows=1\n" +
				"filter g: g.par = b.id AND (EXISTS (SELECT NULL FROM C c WHERE c.par = b.id) OR EXISTS (SELECT NULL FROM E e WHERE e.par = b.id)) est_rows=1\n" +
				"  exists subplan\n" +
				"    scan c: index lookup C_par est_rows=2\n" +
				"    filter c: c.par = b.id est_rows=2\n" +
				"    project: NULL\n" +
				"  exists subplan\n" +
				"    scan e: index lookup E_par est_rows=1\n" +
				"    filter e: e.par = b.id est_rows=1\n" +
				"    project: NULL\n" +
				"project: b.id, b.dewey_pos (distinct by b.id, first match)\n",
		},
		{
			name: "unnested EXISTS of two candidates a binding, the OR of subplans stays before it",
			sql: "SELECT DISTINCT b.id, b.dewey_pos FROM B b WHERE EXISTS (SELECT NULL FROM C c WHERE c.par = b.id) AND " +
				"(EXISTS (SELECT NULL FROM G g WHERE g.par = b.id) OR EXISTS (SELECT NULL FROM E e WHERE e.par = b.id)) ORDER BY b.dewey_pos",
			want: "scan b: full scan, rows in dewey_pos order est_rows=2\n" +
				"filter b: EXISTS (SELECT NULL FROM G g WHERE g.par = b.id) OR EXISTS (SELECT NULL FROM E e WHERE e.par = b.id) est_rows=2\n" +
				"  exists subplan\n" +
				"    scan g: index lookup G_par est_rows=1\n" +
				"    filter g: g.par = b.id est_rows=1\n" +
				"    project: NULL\n" +
				"  exists subplan\n" +
				"    scan e: index lookup E_par est_rows=1\n" +
				"    filter e: e.par = b.id est_rows=1\n" +
				"    project: NULL\n" +
				"scan c: index lookup C_par, existential est_rows=2\n" +
				"filter c: c.par = b.id est_rows=2\n" +
				"project: b.id, b.dewey_pos (distinct by b.id, first match)\n",
		},
		{
			name: "unnested EXISTS trailing without a key",
			sql:  "SELECT DISTINCT b.path_id FROM B b WHERE EXISTS (SELECT NULL FROM G g WHERE g.par = b.id) ORDER BY b.path_id",
			want: "scan b: full scan est_rows=2\n" +
				"scan g: index lookup G_par, existential est_rows=1\n" +
				"filter g: g.par = b.id est_rows=1\n" +
				"project: b.path_id (first match from g)\n" +
				"distinct\n" +
				"sort: b.path_id\n",
		},
		{
			name: "unnested EXISTS of two aliases driving",
			sql:  "SELECT DISTINCT b.path_id FROM B b WHERE EXISTS (SELECT NULL FROM C c, E e WHERE c.par = b.id AND e.par = c.id) ORDER BY b.path_id",
			want: "scan e: full scan, existential est_rows=1\n" +
				"scan c: index lookup C_pk, existential est_rows=1\n" +
				"filter c: e.par = c.id est_rows=1\n" +
				"scan b: index lookup B_pk est_rows=1\n" +
				"filter b: c.par = b.id est_rows=1\n" +
				"project: b.path_id\n" +
				"distinct\n" +
				"sort: b.path_id\n",
		},
		{
			name: "a lone OR conjunct is not parenthesised",
			sql:  "SELECT b.id FROM B b WHERE b.id = 2 OR b.id = 10",
			want: "scan b: full scan est_rows=2\n" +
				"filter b: b.id = 2 OR b.id = 10 est_rows=0.20\n" +
				"project: b.id\n",
		},
		{
			name: "union merging ordered branches",
			sql:  "SELECT DISTINCT g.id AS id FROM G g UNION SELECT DISTINCT f.id AS id FROM F f ORDER BY id",
			want: "union branch 1:\n" +
				"  scan g: full scan, rows in id order est_rows=3\n" +
				"  project: id (distinct by g.id)\n" +
				"union branch 2:\n" +
				"  scan f: full scan, rows in id order est_rows=2\n" +
				"  project: id (distinct by f.id)\n" +
				"union distinct\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := sqlast.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Explain(st)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("EXPLAIN %s:\ngot:\n%s\nwant:\n%s", tc.sql, got, tc.want)
			}
		})
	}
}

// TestExplainAnalyzeStats checks that EXPLAIN ANALYZE annotates every
// operator with a stats block and that the numbers reflect the
// execution: index scans record probes, subplans record one loop per
// outer evaluation, dedup reports candidates in vs kept out. (The EXISTS
// sits under an OR so that it stays a subplan, unnest.go.)
func TestExplainAnalyzeStats(t *testing.T) {
	db, _ := buildPair(t, 7, 300)
	st, err := sqlast.Parse(
		"SELECT DISTINCT a.tag FROM n a WHERE a.id < 0 OR EXISTS " +
			"(SELECT b.id FROM n b WHERE b.par = a.id) ORDER BY a.tag DESC")
	if err != nil {
		t.Fatal(err)
	}
	text, err := db.ExplainAnalyzeWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "total:") {
			continue
		}
		if !strings.Contains(line, "[loops=") || !strings.Contains(line, "time=") {
			t.Errorf("operator line missing stats block: %q", line)
		}
	}
	for _, want := range []string{
		"scan a: full scan [loops=1 in=0 out=300 ",
		"exists subplan [loops=300 ",
		"distinct [loops=1 in=",
		"sort: a.tag DESC [loops=1 ",
		"total: rows=3 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	// The correlated subplan probes the n_par index once per outer row.
	probed := false
	for _, line := range lines {
		if strings.Contains(line, "index lookup n_par") && strings.Contains(line, "probes=300") {
			probed = true
		}
	}
	if !probed {
		t.Errorf("expected 300 recorded index probes on the subplan scan:\n%s", text)
	}
}

// TestExplainAnalyzeTimesDedup: the duplicate-elimination sets are
// timed like every other operator — during serial collection, as the
// morsel workers hand their rows over, and at the union level — so that
// a DISTINCT that costs something cannot report time=0s.
func TestExplainAnalyzeTimesDedup(t *testing.T) {
	db := bigDB(t)
	for _, tc := range []struct {
		sql, line string
		workers   int
	}{
		{"SELECT DISTINCT i.text FROM item i ORDER BY i.text", "distinct [", 1},
		{"SELECT DISTINCT i.text FROM item i ORDER BY i.text", "distinct [", 4},
		{"SELECT i.text AS v FROM item i UNION SELECT i.text AS v FROM item i WHERE i.val > 5 ORDER BY v", "union distinct [", 1},
	} {
		db.forceWorkers = tc.workers
		text, err := db.ExplainAnalyzeWithOptions(sqlast.MustParse(tc.sql), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, tc.line) {
				found = true
				if strings.Contains(line, "time=0s") {
					t.Errorf("%s workers=%d: dedup over thousands of rows is untimed: %q", tc.sql, tc.workers, line)
				}
			}
		}
		if !found {
			t.Errorf("%s: no %q line:\n%s", tc.sql, tc.line, text)
		}
	}
}

// TestExplainStatementSurface runs EXPLAIN / EXPLAIN ANALYZE as SQL
// statements: the plan comes back as a one-column result, and nesting
// is rejected at parse time.
func TestExplainStatementSurface(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "EXPLAIN SELECT b.id FROM B b WHERE b.id = 2")
	if len(res.Cols) != 1 || res.Cols[0] != "plan" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].S != "scan b: index lookup B_pk est_rows=1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustRun(t, db, "EXPLAIN ANALYZE SELECT b.id FROM B b WHERE b.id = 2")
	if got := res.Rows[0][0].S; !strings.Contains(got, "[loops=1 ") {
		t.Fatalf("first analyze line = %q", got)
	}
	if last := res.Rows[len(res.Rows)-1][0].S; !strings.HasPrefix(last, "total: rows=1 ") {
		t.Fatalf("last analyze line = %q", last)
	}
	if _, err := runSQL(db, "EXPLAIN EXPLAIN SELECT b.id FROM B b"); err == nil {
		t.Fatal("nested EXPLAIN did not error")
	}
}

// TestExplainAnalyzeParallelMergesStats executes the same statement
// serially and on 8 morsel workers: results must stay byte-identical
// and the merged frame must account for every candidate row.
func TestExplainAnalyzeParallelMergesStats(t *testing.T) {
	db, _ := buildPair(t, 11, 900)
	st, err := sqlast.Parse("SELECT DISTINCT a.tag, a.val FROM n a WHERE a.val >= 2")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := execMode{workers: 1}.run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	par, err := execMode{workers: 8}.run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if serial.Rows[i][j].String() != par.Rows[i][j].String() {
				t.Fatalf("row %d col %d: serial %v parallel %v",
					i, j, serial.Rows[i][j], par.Rows[i][j])
			}
		}
	}
	_, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.forceWorkers = 8
	_, frame, err := db.runCompiledFrame(nil, cs, nil, newAccountant(0, 0), "", false)
	if err != nil {
		t.Fatal(err)
	}
	phys := cs.sel.phys
	scan := frame[phys.scans[0].id]
	if scan.RowsOut() != 900 {
		t.Errorf("driving scan rowsOut = %d, want 900", scan.RowsOut())
	}
	dedup := frame[phys.dedup.id]
	if dedup.RowsIn() <= dedup.RowsOut() {
		t.Errorf("dedup in=%d out=%d: expected candidates to exceed kept rows",
			dedup.RowsIn(), dedup.RowsOut())
	}
	if dedup.RowsOut() != int64(len(par.Rows)) {
		t.Errorf("dedup rowsOut = %d, want %d result rows", dedup.RowsOut(), len(par.Rows))
	}
}

// TestParallelDeferredDistinctFirstWins pins the DISTINCT contract on
// morsel workers: the dedup set sees the rows in morsel order — the
// serial order — whichever worker finishes first, so the first
// duplicate in that order is the one kept. The query projects a column
// outside the engine's result comparison (id of the kept row) only
// through ordering: with no ORDER BY, output order is first-occurrence
// order and must match serial execution exactly.
func TestParallelDeferredDistinctFirstWins(t *testing.T) {
	db, _ := buildPair(t, 13, 700)
	st, err := sqlast.Parse("SELECT DISTINCT a.tag FROM n a")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := execMode{workers: 1}.run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	par, err := execMode{workers: 4}.run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i][0].S != par.Rows[i][0].S {
			t.Fatalf("row %d: serial %q parallel %q — first-in-merged-order must win",
				i, serial.Rows[i][0].S, par.Rows[i][0].S)
		}
	}
	_, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.forceWorkers = 4
	_, frame, err := db.runCompiledFrame(nil, cs, nil, newAccountant(0, 0), "", false)
	if err != nil {
		t.Fatal(err)
	}
	dedup := frame[cs.sel.phys.dedup.id]
	if dedup.RowsIn() != 700 {
		t.Errorf("dedup rowsIn = %d, want all 700 candidates", dedup.RowsIn())
	}
	if dedup.RowsOut() != int64(len(serial.Rows)) {
		t.Errorf("dedup rowsOut = %d, want %d", dedup.RowsOut(), len(serial.Rows))
	}
}

// NULL ordering: the engine treats NULL as the smallest value, so
// NULLs come first under ASC and last under DESC — on both sort paths
// (the memcomparable fast path and the generic lessKeys fallback).
// See DESIGN.md §9.

// nullsFirstLast reports whether a result column starts and ends with
// NULL, after asserting the column holds both NULL and non-NULL
// values (otherwise the ordering assertion would be vacuous).
func nullsFirstLast(t *testing.T, res *Result, col int) (first, last bool) {
	t.Helper()
	var sawNull, sawVal bool
	for _, r := range res.Rows {
		if r[col].IsNull() {
			sawNull = true
		} else {
			sawVal = true
		}
	}
	if !sawNull || !sawVal {
		t.Fatalf("need both NULL and non-NULL keys, got rows %v", res.Rows)
	}
	return res.Rows[0][col].IsNull(), res.Rows[len(res.Rows)-1][col].IsNull()
}

// TestOrderByNullsMemcomparable drives the fast sort path (int keys
// with NULLs admit the memcomparable encoding): n.par is NULL exactly
// for root nodes.
func TestOrderByNullsMemcomparable(t *testing.T) {
	db, _ := buildPair(t, 3, 60)
	res := mustRun(t, db, "SELECT a.par FROM n a ORDER BY a.par, a.id")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC: want NULLs first, got rows %v", res.Rows)
	}
	res = mustRun(t, db, "SELECT a.par FROM n a ORDER BY a.par DESC, a.id")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC: want NULLs last, got rows %v", res.Rows)
	}
}

// TestOrderByNullsGeneric forces the generic lessKeys path with a
// float sort key (floats have no memcomparable encoding); NULL
// arithmetic yields NULL, preserving the NULL keys.
func TestOrderByNullsGeneric(t *testing.T) {
	db, _ := buildPair(t, 3, 60)
	res := mustRun(t, db, "SELECT a.par + 0.5 FROM n a ORDER BY a.par + 0.5, a.id")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC float keys: want NULLs first, got rows %v", res.Rows)
	}
	res = mustRun(t, db, "SELECT a.par + 0.5 FROM n a ORDER BY a.par + 0.5 DESC, a.id")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC float keys: want NULLs last, got rows %v", res.Rows)
	}
}

// TestOrderByNullsUnion covers the UNION ordering path, which sorts by
// projected column position.
func TestOrderByNullsUnion(t *testing.T) {
	db := fixtureDB(t)
	// A.par is NULL (document root); C.par is 2.
	res := mustRun(t, db,
		"SELECT c.par AS p FROM C c UNION SELECT a.par AS p FROM A a ORDER BY p")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC: want NULL first, got rows %v", res.Rows)
	}
	res = mustRun(t, db,
		"SELECT c.par AS p FROM C c UNION SELECT a.par AS p FROM A a ORDER BY p DESC")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC: want NULL last, got rows %v", res.Rows)
	}
}

// TestOperatorCount sanity-checks the per-statement operator metric
// used by xbench.
func TestOperatorCount(t *testing.T) {
	db := fixtureDB(t)
	st, err := sqlast.Parse("SELECT b.id FROM B b WHERE b.id = 2")
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.OperatorCount(st)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // scan, filter, project
		t.Fatalf("OperatorCount = %d, want 3", n)
	}
}

// TestFilterLabelParenthesisesOr: the filter label reads with the
// statement's precedence — an OR conjunct among others is parenthesised,
// an OR inside a literal or a sub-select makes its conjunct no OR.
func TestFilterLabelParenthesisesOr(t *testing.T) {
	db := fixtureDB(t)
	for _, tc := range []struct {
		where, want string
	}{
		{"d.id = 4 AND (d.par = 3 OR d.par = 5)", "d.id = 4 AND (d.par = 3 OR d.par = 5)"},
		{"d.par = 3 OR d.par = 5", "d.par = 3 OR d.par = 5"},
		{"d.text <> 'this OR that' AND d.text <> 'it''s OR not'", "d.text <> 'this OR that' AND d.text <> 'it''s OR not'"},
		{"d.id = 4 AND NOT EXISTS (SELECT NULL FROM E e WHERE e.id = 1 OR e.par = d.par) AND REGEXP_LIKE(d.text, '^(a|b) OR c$')",
			"d.id = 4 AND REGEXP_LIKE(d.text, '^(a|b) OR c$') AND NOT EXISTS (SELECT NULL FROM E e WHERE e.id = 1 OR e.par = d.par)"},
		{"d.id = 4 AND ((d.par = 3 AND d.path_id = 4) OR d.par = 5)", "d.id = 4 AND (d.par = 3 AND d.path_id = 4 OR d.par = 5)"},
	} {
		plan, err := db.Explain(sqlast.MustParse("SELECT d.path_id FROM D d WHERE " + tc.where))
		if err != nil {
			t.Fatal(err)
		}
		label := ""
		for _, line := range strings.Split(plan, "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "filter d: "); ok && label == "" {
				label = rest[:strings.LastIndex(rest, " est_rows=")]
			}
		}
		if label != tc.want {
			t.Errorf("WHERE %s:\n got  filter d: %s\n want filter d: %s\n%s", tc.where, label, tc.want, plan)
		}
	}
}
