package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// EXPLAIN output is a contract with the plan cache: creating an index
// on a table the statement never touches must not perturb the cached
// plan (byte-identical EXPLAIN, served as a cache hit), while an index
// on a referenced column must invalidate the entry and re-plan onto
// the new access path.
func TestExplainStableUnderUnrelatedIndex(t *testing.T) {
	db := fixtureDB(t)
	st := sqlast.MustParse("SELECT F.id FROM F WHERE F.text = '2'")

	s1, err := db.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s1, "F_text") {
		t.Fatalf("plan uses an index that does not exist yet:\n%s", s1)
	}

	// Index on a table the statement does not reference: the cached
	// plan must survive verbatim and be served from the cache.
	if _, err := db.Table("G").CreateIndex("G_par_extra", "par", "id"); err != nil {
		t.Fatal(err)
	}
	var s2 string
	hits, misses := statsDelta(db, func() {
		s2, err = db.Explain(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatalf("EXPLAIN changed after index on unrelated table:\nbefore:\n%s\nafter:\n%s", s1, s2)
	}
	if hits != 1 || misses != 0 {
		t.Fatalf("unrelated index: hits=%d misses=%d, want 1/0 (cached plan reused)", hits, misses)
	}

	// Index on the referenced table's predicate column: the entry is
	// stale, the statement re-plans, and the new access path shows up.
	if _, err := db.Table("F").CreateIndex("F_text", "text"); err != nil {
		t.Fatal(err)
	}
	var s3 string
	hits, misses = statsDelta(db, func() {
		s3, err = db.Explain(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if misses != 1 {
		t.Fatalf("index on referenced table: hits=%d misses=%d, want a miss (re-plan)", hits, misses)
	}
	if s3 == s1 {
		t.Fatalf("EXPLAIN unchanged after index on referenced column:\n%s", s3)
	}
	if !strings.Contains(s3, "F_text") {
		t.Fatalf("re-planned statement does not use the new index:\n%s", s3)
	}
}

// A proof the planner read off the pinned rows lives as long as they
// do: an insert that lands out of order retires the cached plan like
// any other write, and the re-plan brings the sort back (the key stays,
// so DISTINCT stays implied).
func TestExplainFollowsRowOrder(t *testing.T) {
	db := orderedDB(t)
	st := sqlast.MustParse("SELECT DISTINCT n.id, n.dewey_pos FROM node n WHERE n.k = 3 ORDER BY n.dewey_pos")
	s1, err := db.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := "scan n: hash join (low selectivity), rows in dewey_pos order est_rows=214\n" +
		"filter n: n.k = 3 est_rows=214\n" +
		"project: n.id, n.dewey_pos (distinct by n.id)\n"; s1 != want {
		t.Fatalf("EXPLAIN over rows in document order:\ngot:\n%s\nwant:\n%s", s1, want)
	}
	before, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}

	// A child of node 3 (Dewey ordinal 4), loaded after everything else.
	late := append(deweyOf(4), 0, 0, 1)
	db.Table("node").MustInsert(NewInt(orderedNodes), NewInt(3), NewBytes(late), NewInt(1), NewInt(3), NewInt(1))
	var s2 string
	hits, misses := statsDelta(db, func() {
		s2, err = db.Explain(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || misses != 1 {
		t.Fatalf("out-of-order insert: hits=%d misses=%d, want 0/1 (re-plan)", hits, misses)
	}
	if want := "scan n: hash join (low selectivity) est_rows=215\n" +
		"filter n: n.k = 3 est_rows=215\n" +
		"project: n.id, n.dewey_pos (distinct by n.id)\n" +
		"sort: n.dewey_pos\n"; s2 != want {
		t.Fatalf("EXPLAIN after the out-of-order insert:\ngot:\n%s\nwant:\n%s", s2, want)
	}
	after, err := run(db, st)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is the first with k = 3; its late child sorts right behind
	// it, ahead of the rest.
	if len(after.Rows) != len(before.Rows)+1 || after.Rows[1][0].I != orderedNodes ||
		!equalResults(&Result{Rows: append(after.Rows[:1:1], after.Rows[2:]...)}, before) {
		t.Fatalf("rows after the insert are not the rows before plus the late node in Dewey order")
	}
}
