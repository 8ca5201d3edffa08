package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

func TestDDLAndInsertViaSQL(t *testing.T) {
	db := NewDB()
	mustExec := func(sql string) *Result {
		t.Helper()
		res, err := runSQL(db, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec("CREATE TABLE part (id INT, name TEXT, weight FLOAT, tag BYTES)")
	mustExec("CREATE INDEX part_pk ON part (id)")
	mustExec("INSERT INTO part VALUES (1, 'bolt', 1.5, X'AB'), (2, 'nut', 2, NULL)")
	mustExec("INSERT INTO part VALUES (3, 'wash' || 'er', 1 + 2, X'00FF')")

	res := mustExec("SELECT p.id, p.name, p.weight FROM part p WHERE p.id >= 2 ORDER BY p.id")
	if len(res.Rows) != 2 || res.Rows[0][1].S != "nut" || res.Rows[1][1].S != "washer" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][2].F != 3 {
		t.Fatalf("arith literal = %v", res.Rows[1][2])
	}
	// Index used.
	res = mustExec("SELECT p.name FROM part p WHERE p.id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bolt" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Status results.
	if got := mustExec("INSERT INTO part VALUES (4, 'pin', 0.1, NULL)"); !strings.Contains(got.Rows[0][0].S, "1 row") {
		t.Fatalf("status = %v", got.Rows)
	}
}

func TestDDLErrors(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE t (a WIBBLE)",
		"CREATE INDEX i ON missing (a)",
		"INSERT INTO missing VALUES (1)",
		"CREATE TABLE",
		"CREATE INDEX i ON t",
		"INSERT INTO t (1)",
		"CREATE VIEW v",
	} {
		if _, err := runSQL(db, sql); err == nil {
			t.Errorf("ExecSQL(%q) should fail", sql)
		}
	}
	if _, err := runSQL(db, "CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := runSQL(db, "INSERT INTO t VALUES (a)"); err == nil {
		t.Error("non-literal INSERT should fail")
	}
	if _, err := runSQL(db, "INSERT INTO t VALUES ('x')"); err == nil {
		t.Error("type-mismatched INSERT should fail")
	}
}

func TestDDLRoundTripRendering(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE t (a INT, b TEXT)",
		"CREATE INDEX ix ON t (a, b)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y')",
	} {
		st, err := sqlast.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := st.String(); got != sql {
			t.Errorf("rendered %q, want %q", got, sql)
		}
	}
}
