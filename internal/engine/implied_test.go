package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// The implied-property suite: each way a proof can fail must keep the
// operator it would have dropped, and every statement — proven or not —
// must return exactly the rows of the control database, whose node
// table ends in a dead row (live = 0, matched by no statement) that
// repeats an id and sits out of Dewey order, so that there no proof
// holds and every plan is the old distinct + sort pipeline over the
// same join order.

// orderedDB builds 1500 nodes — too many for plan-time resolution to
// take the table for a dimension — in document order (id and dewey_pos
// ascending, path_id cycling over the first five of six paths, k
// cycling over seven values), two kids under every node — which makes
// the node table the cheaper one to drive a join from — and
// the path dimension; extra node rows are appended after them.
func orderedDB(t testing.TB, extra ...[]Value) *DB {
	t.Helper()
	db := NewDB()
	paths, err := db.CreateTable("paths", Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"/a", "/a/b", "/a/c", "/x", "/x/y", "/z"} {
		paths.MustInsert(NewInt(int64(i+1)), NewText(p))
	}
	node, err := db.CreateTable("node", Column{"id", TInt}, Column{"par", TInt},
		Column{"dewey_pos", TBytes}, Column{"path_id", TInt}, Column{"k", TInt}, Column{"live", TInt})
	if err != nil {
		t.Fatal(err)
	}
	kid, err := db.CreateTable("kid", Column{"id", TInt}, Column{"par", TInt}, Column{"x", TInt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orderedNodes; i++ {
		node.MustInsert(NewInt(int64(i)), NewInt(int64(i/3)), NewBytes(deweyOf(i+1)),
			NewInt(int64(1+i%5)), NewInt(int64(i%7)), NewInt(1))
		for j := 0; j < 2; j++ {
			kid.MustInsert(NewInt(int64(2*i+j)), NewInt(int64(i)), NewInt(int64(j)))
		}
	}
	for _, row := range extra {
		if _, err := node.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range []struct {
		t    *Table
		name string
		cols []string
	}{
		{paths, "paths_pk", []string{"id"}},
		{node, "node_pk", []string{"id"}},
		{node, "node_dp", []string{"dewey_pos", "path_id"}},
		{kid, "kid_pk", []string{"id"}},
		{kid, "kid_par", []string{"par"}},
	} {
		if _, err := ix.t.CreateIndex(ix.name, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const orderedNodes = 1500

func deweyOf(ord int) []byte { return []byte{byte(ord >> 16), byte(ord >> 8), byte(ord)} }

// deadRow breaks both proofs for whoever holds it and matches nothing.
func deadRow() []Value {
	return []Value{NewInt(5), NewInt(0), NewBytes(deweyOf(0)), NewInt(6), NewInt(0), NewInt(0)}
}

// operators lists which of the two operators an EXPLAIN rendering holds
// and whether it runs first-match.
func operators(plan string) (distinct, sort, first bool) {
	for _, line := range strings.Split(plan, "\n") {
		switch op := strings.TrimSpace(line); {
		case op == "distinct" || strings.HasPrefix(op, "distinct "):
			distinct = true
		case strings.HasPrefix(op, "sort:") || strings.HasPrefix(op, "union sort:"):
			sort = true
		}
	}
	return distinct, sort, strings.Contains(plan, ", first match)")
}

func TestImpliedProofs(t *testing.T) {
	subject, control := orderedDB(t), orderedDB(t, deadRow())
	// A range scan of an index the order key leads is ordered on any
	// rows, the control's too; such statements, all over one relation,
	// are also held against heuristic-only planning, which proves nothing.
	heuristic := orderedDB(t)
	ForceHeuristic(heuristic, true)
	cases := []struct {
		name, sql             string
		distinct, sort, first bool // what the subject's plan must hold
		lacks                 string
		byIndex               bool
	}{
		{name: "single relation, key projected",
			sql: "SELECT DISTINCT n.id, n.dewey_pos FROM node n WHERE n.live = 1 AND n.k < 5 ORDER BY n.dewey_pos"},
		{name: "descending",
			sql:  "SELECT DISTINCT n.id, n.dewey_pos FROM node n WHERE n.live = 1 ORDER BY n.dewey_pos DESC",
			sort: true},
		{name: "non-unique projected column",
			sql:      "SELECT DISTINCT n.k, n.par FROM node n WHERE n.live = 1 ORDER BY n.par",
			distinct: true, sort: true},
		{name: "second order key",
			sql:  "SELECT DISTINCT n.id FROM node n WHERE n.live = 1 ORDER BY n.dewey_pos, n.k",
			sort: true},
		{name: "order by expression",
			sql:  "SELECT DISTINCT n.id FROM node n WHERE n.live = 1 ORDER BY n.id + 0",
			sort: true},
		{name: "projected column from a later alias, ties under one driving row",
			sql:      "SELECT DISTINCT c.x, n.dewey_pos FROM node n, kid c WHERE c.par = n.id AND n.live = 1 ORDER BY n.dewey_pos",
			distinct: true},
		{name: "order key from a later alias",
			sql:      "SELECT DISTINCT n.id FROM node n, kid c WHERE c.par = n.id AND n.live = 1 ORDER BY c.id",
			distinct: true, sort: true},
		{name: "duplicate-producing inner step",
			sql:   "SELECT DISTINCT n.id, n.dewey_pos FROM node n, kid c WHERE c.par = n.id AND n.live = 1 ORDER BY n.dewey_pos",
			first: true},
		{name: "driving key probe over three keys",
			sql:   "SELECT DISTINCT n.id, n.dewey_pos FROM node n, paths p WHERE n.path_id = p.id AND REGEXP_LIKE(p.path, '^/a') AND n.live = 1 ORDER BY n.dewey_pos",
			lacks: "full scan"},
		{name: "range scan of the index the order key leads",
			sql:     "SELECT DISTINCT n.id, n.dewey_pos FROM node n WHERE n.dewey_pos BETWEEN X'000010' AND X'000100' AND n.live = 1 ORDER BY n.dewey_pos",
			byIndex: true},
		{name: "range scan ordered by another ascending column",
			sql: "SELECT n.dewey_pos FROM node n WHERE n.dewey_pos > X'000200' AND n.live = 1 ORDER BY n.id"},
		{name: "count is not a projection",
			sql: "SELECT COUNT(*) FROM node n, kid c WHERE c.par = n.id AND n.live = 1"},
		{name: "union of ordered branches with a shared row",
			sql: "SELECT DISTINCT n.id AS id, n.dewey_pos AS dewey_pos FROM node n WHERE n.live = 1 AND n.k = 1 UNION " +
				"SELECT DISTINCT n.id AS id, n.dewey_pos AS dewey_pos FROM node n, paths p WHERE n.path_id = p.id AND REGEXP_LIKE(p.path, '^/x') AND n.live = 1 ORDER BY dewey_pos"},
		{name: "union with a descending key",
			sql: "SELECT DISTINCT n.id AS id FROM node n WHERE n.live = 1 AND n.k = 1 UNION " +
				"SELECT DISTINCT n.id AS id FROM node n WHERE n.live = 1 AND n.k = 2 ORDER BY id DESC",
			sort: true},
		{name: "union with a joining branch that is not duplicate-free",
			sql: "SELECT n.id AS id FROM node n WHERE n.live = 1 AND n.k = 1 UNION " +
				"SELECT n.id AS id FROM node n, kid c WHERE c.par = n.id AND n.live = 1 ORDER BY id",
			sort: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := sqlast.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := subject.Explain(st)
			if err != nil {
				t.Fatal(err)
			}
			if d, s, f := operators(plan); d != tc.distinct || s != tc.sort || f != tc.first {
				t.Errorf("plan holds distinct=%v sort=%v first match=%v, want %v %v %v:\n%s", d, s, f, tc.distinct, tc.sort, tc.first, plan)
			}
			if tc.lacks != "" && strings.Contains(plan, tc.lacks) {
				t.Errorf("plan holds %q:\n%s", tc.lacks, plan)
			}
			full := control
			if tc.byIndex {
				full = heuristic
			}
			fullPlan, err := full.Explain(st)
			if err != nil {
				t.Fatal(err)
			}
			if d, s, f := operators(fullPlan); d != strings.Contains(tc.sql, "DISTINCT") || s != strings.Contains(tc.sql, "ORDER BY") || f {
				t.Fatalf("the control plan is not the full pipeline (distinct=%v sort=%v first match=%v):\n%s", d, s, f, fullPlan)
			}
			want, err := run(full, st)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the statement selects nothing")
			}
			for _, m := range []execMode{{workers: 1}, {workers: 1, batch: 1}, {workers: 4}, {workers: 4, batch: 7}} {
				got, err := m.run(subject, st)
				if err != nil {
					t.Fatal(err)
				}
				if !equalResults(got, want) {
					t.Errorf("%+v: %d rows differ from the control's %d (order included)", m, len(got.Rows), len(want.Rows))
				}
			}
		})
	}
}

// TestImpliedFirstMatchStopsEarly checks the first-match unwind by its
// counters: the inner step yields one of each node's two kids, and the
// projection sees one row per result row, not one per join binding.
func TestImpliedFirstMatchStopsEarly(t *testing.T) {
	db := orderedDB(t)
	st := sqlast.MustParse("SELECT DISTINCT n.id FROM node n, kid c WHERE c.par = n.id AND n.live = 1 ORDER BY n.id")
	text, err := db.ExplainAnalyzeWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scan c: index lookup kid_par [loops=1500 in=0 out=1500 probes=1500 ",
		"project: n.id (distinct by n.id, first match) [loops=0 in=1500 out=1500 ",
		"total: rows=1500 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, text)
		}
	}
}

// TestImpliedOrderNeedsTheFlag fills the table so that the flag fails —
// out of Dewey order, and with a NULL in the order column — and checks
// the sort stays and sorts.
func TestImpliedOrderNeedsTheFlag(t *testing.T) {
	late := []Value{NewInt(orderedNodes), NewInt(0), NewBytes(deweyOf(7)), NewInt(1), NewInt(0), NewInt(1)}
	late[2].B = append(late[2].B, 0, 0, 1) // a child of node 7, loaded last
	null := []Value{NewInt(orderedNodes), NewInt(0), Null, NewInt(1), NewInt(0), NewInt(1)}
	st := sqlast.MustParse("SELECT DISTINCT n.id, n.dewey_pos FROM node n WHERE n.live = 1 ORDER BY n.dewey_pos")
	for name, row := range map[string][]Value{"out of order": late, "null": null} {
		db := orderedDB(t, row)
		plan, err := db.Explain(st)
		if err != nil {
			t.Fatal(err)
		}
		if d, s, _ := operators(plan); d || !s {
			t.Errorf("%s: plan holds distinct=%v sort=%v, want the sort only:\n%s", name, d, s, plan)
		}
		res, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != orderedNodes+1 {
			t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), orderedNodes+1)
		}
		at := 7 // after node 7 (id 6), before node 8
		if name == "null" {
			at = 0 // NULLs sort first
		}
		if res.Rows[at][0].I != orderedNodes {
			t.Errorf("%s: the late row is not at position %d", name, at)
		}
		for i := 1; i < len(res.Rows); i++ {
			a, b := res.Rows[i-1][1], res.Rows[i][1]
			if !a.IsNull() && bytes.Compare(a.B, b.B) >= 0 {
				t.Fatalf("%s: rows %d and %d are out of order", name, i-1, i)
			}
		}
	}
}

// TestImpliedFlagThroughEveryApplyPath checks the ascending flag after a
// live commit, a WAL replay and a checkpoint load.
func TestImpliedFlagThroughEveryApplyPath(t *testing.T) {
	dir := t.TempDir()
	st := sqlast.MustParse("SELECT DISTINCT t.id FROM t ORDER BY t.pos")
	holds := func(db *DB, want bool) {
		t.Helper()
		plan, err := db.Explain(st)
		if err != nil {
			t.Fatal(err)
		}
		if d, s, _ := operators(plan); d || s != !want {
			t.Errorf("the order proof holds = %v, want %v:\n%s", !s, want, plan)
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", Column{"id", TInt}, Column{"pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("t_pk", "id"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		tb.MustInsert(NewInt(int64(i)), NewBytes(deweyOf(i)))
	}
	holds(db, true)
	for round, checkpoint := range []bool{false, true} {
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = Open(dir); err != nil {
			t.Fatal(err)
		}
		holds(db, true)
		if round == 1 {
			// An equal position does not ascend: the flag is strict.
			db.Table("t").MustInsert(NewInt(41), NewBytes(deweyOf(40)))
			holds(db, false)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			holds(db, false)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestImpliedUnionMergeDropsSharedRows pins the merge's duplicate
// elimination: a row two branches share is kept once, at its place.
func TestImpliedUnionMergeDropsSharedRows(t *testing.T) {
	db := orderedDB(t)
	st := sqlast.MustParse("SELECT n.id AS id FROM node n WHERE n.k < 3 UNION SELECT n.id AS id FROM node n WHERE n.k > 1 AND n.k < 5 UNION SELECT n.id AS id FROM node n WHERE n.k = 2 ORDER BY id")
	text, err := db.ExplainAnalyzeWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	n := 0
	for i := 0; i < orderedNodes; i++ {
		k := i % 7
		for _, in := range []bool{k < 3, k > 1 && k < 5, k == 2} {
			if in {
				n++
			}
		}
		if k < 5 {
			want = append(want, fmt.Sprint(i))
		}
	}
	if w := fmt.Sprintf("union distinct [loops=1 in=%d out=%d probes=0 time=", n, len(want)); !strings.Contains(text, w) || strings.Contains(text, "union sort") {
		t.Errorf("EXPLAIN ANALYZE lacks %q or still sorts:\n%s", w, text)
	}
	res, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].String())
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("merged union = %v, want %v", got, want)
	}
}
