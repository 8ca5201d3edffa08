package engine

import (
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/sqlast"
)

func TestIndexPrefixesAccess(t *testing.T) {
	db := NewDB()
	tb, _ := db.CreateTable("n", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	// A chain of nested nodes plus unrelated siblings.
	positions := []dewey.Pos{
		dewey.New(1),
		dewey.New(1, 1),
		dewey.New(1, 1, 1),
		dewey.New(1, 1, 1, 1),
		dewey.New(1, 2),
		dewey.New(2),
	}
	for i, p := range positions {
		tb.MustInsert(NewInt(int64(i+1)), NewBytes(p))
	}
	if _, err := tb.CreateIndex("n_dp", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	// Ancestors of node 4 (1.1.1.1): nodes 1, 2, 3 plus itself.
	sql := "SELECT a.id FROM n d, n a WHERE d.id = 4 AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY a.id"
	plan, err := db.Explain(sqlast.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index prefix lookups") {
		t.Fatalf("ancestor query should use the prefix access path:\n%s", plan)
	}
	res, err := runSQL(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(res); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("ancestors = %v", got)
	}
	// Composite index also supports prefix lookups.
	db2 := NewDB()
	tb2, _ := db2.CreateTable("n", Column{"id", TInt}, Column{"dewey_pos", TBytes}, Column{"path_id", TInt})
	for i, p := range positions {
		tb2.MustInsert(NewInt(int64(i+1)), NewBytes(p), NewInt(int64(i%3)))
	}
	if _, err := tb2.CreateIndex("n_dp", "dewey_pos", "path_id"); err != nil {
		t.Fatal(err)
	}
	res, err = runSQL(db2, "SELECT a.id FROM n d, n a WHERE d.id = 4 AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY a.id")
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(res); len(got) != 4 {
		t.Fatalf("composite-index ancestors = %v", got)
	}
}

func TestSubstrFunction(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT SUBSTR('abcdef', 3) FROM A")
	if res.Rows[0][0].S != "cdef" {
		t.Fatalf("SUBSTR = %q", res.Rows[0][0].S)
	}
	res = mustRun(t, db, "SELECT SUBSTR('abc', 10), SUBSTR('abc', 0), SUBSTR('abc', 1) FROM A")
	r := res.Rows[0]
	if r[0].S != "" || r[1].S != "abc" || r[2].S != "abc" {
		t.Fatalf("SUBSTR edge cases = %v", r)
	}
	// Dynamic SUBSTR + LENGTH over joined paths, as the suffix checks
	// emit.
	res = mustRun(t, db,
		"SELECT SUBSTR(p2.path, LENGTH(p1.path) + 1) FROM paths p1, paths p2 WHERE p1.path = '/A/B' AND p2.path = '/A/B/C/E/F'")
	if res.Rows[0][0].S != "/C/E/F" {
		t.Fatalf("suffix = %q", res.Rows[0][0].S)
	}
	if _, err := runSQL(db, "SELECT SUBSTR(A.id, 'x') FROM A"); err == nil {
		t.Fatal("non-integer SUBSTR position should fail")
	}
}

func TestDynamicRegexpPattern(t *testing.T) {
	db := fixtureDB(t)
	// Pattern built from a column (not a literal): compiled at run time.
	res := mustRun(t, db,
		"SELECT p.id FROM paths p WHERE REGEXP_LIKE(p.path, '^' || p.path || '$') ORDER BY p.id")
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if _, err := runSQL(db, "SELECT p.id FROM paths p WHERE REGEXP_LIKE(p.path, '(' || p.path)"); err == nil {
		t.Fatal("bad dynamic pattern should fail")
	}
}

func TestValueStringsAndTruth(t *testing.T) {
	cases := map[string]Value{
		"3.5":   NewFloat(3.5),
		"hello": NewText("hello"),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String(%v) = %q", v, v.String())
		}
	}
	if !NewFloat(1).Truth() || NewFloat(0).Truth() {
		t.Error("float truth wrong")
	}
	if !NewBytes([]byte{1}).Truth() || NewBytes(nil).Truth() {
		t.Error("bytes truth wrong")
	}
	if !NewText("x").Truth() || NewText("").Truth() {
		t.Error("text truth wrong")
	}
}

func TestArithMore(t *testing.T) {
	if v, err := Arith('+', NewFloat(1.5), NewInt(2)); err != nil || v.F != 3.5 {
		t.Errorf("1.5+2 = %v (%v)", v, err)
	}
	if v, err := Arith('*', NewText("3"), NewInt(4)); err != nil || v.F != 12 {
		t.Errorf("'3'*4 = %v (%v)", v, err)
	}
	if _, err := Arith('+', NewText("abc"), NewInt(1)); err == nil {
		t.Error("non-numeric arithmetic should fail")
	}
	if v, _ := Arith('-', Null, NewInt(1)); !v.IsNull() {
		t.Error("NULL arithmetic should be NULL")
	}
	if _, err := Arith('%', NewInt(5), NewInt(0)); err == nil {
		t.Error("mod by zero should fail")
	}
	if v, err := Arith('%', NewFloat(7), NewFloat(2)); err != nil || v.F != 1 {
		t.Errorf("7.0%%2.0 = %v (%v)", v, err)
	}
	if _, err := Arith('/', NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero should fail")
	}
	if _, err := Arith('?', NewInt(1), NewInt(1)); err == nil {
		t.Error("unknown operator should fail")
	}
}

func TestOrderByNullsAndMixed(t *testing.T) {
	db := NewDB()
	tb, _ := db.CreateTable("t", Column{"id", TInt}, Column{"v", TText})
	tb.MustInsert(NewInt(1), NewText("b"))
	tb.MustInsert(NewInt(2), Null)
	tb.MustInsert(NewInt(3), NewText("a"))
	res, err := runSQL(db, "SELECT t.id FROM t ORDER BY t.v, t.id")
	if err != nil {
		t.Fatal(err)
	}
	got := ids(res)
	// NULL sorts first.
	if got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("order = %v", got)
	}
}

func TestIndexesAccessor(t *testing.T) {
	db := fixtureDB(t)
	tb := db.Table("F")
	if len(tb.Indexes()) != 3 {
		t.Fatalf("indexes = %d", len(tb.Indexes()))
	}
}

func TestFatHashStillCorrect(t *testing.T) {
	// A low-selectivity join column: results must match a bare scan.
	db := NewDB()
	tb, _ := db.CreateTable("big", Column{"id", TInt}, Column{"grp", TInt})
	for i := 0; i < 2000; i++ {
		tb.MustInsert(NewInt(int64(i)), NewInt(int64(i%3)))
	}
	sm, _ := db.CreateTable("small", Column{"grp", TInt})
	sm.MustInsert(NewInt(1))
	res, err := runSQL(db, "SELECT COUNT(*) FROM small s, big b WHERE b.grp = s.grp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 667 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
