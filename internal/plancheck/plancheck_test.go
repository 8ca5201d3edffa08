package plancheck

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

func TestNormalizeRewrites(t *testing.T) {
	cases := []struct{ in, want string }{
		{"b.y = a.x", "a.x = b.y"},
		{"a.x = b.y", "a.x = b.y"},
		{"a.x > 5", "5 < a.x"},
		{"a.x >= 5", "5 <= a.x"},
		{"(a.x = 1 AND b.y = 2) AND a.x = 1", "1 = a.x AND 1 = a.x AND 2 = b.y"},
		{"b.y = 2 OR a.x = 1", "1 = a.x OR 2 = b.y"},
		{"regexp_like(a.path, '#x#')", "REGEXP_LIKE(a.path, '#x#')"},
	}
	for _, c := range cases {
		st, err := sqlast.Parse("SELECT a.x FROM t a WHERE " + c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		got := normalize(st.(*sqlast.Select).Where).String()
		if got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// twoTableDB builds a small database with indexes, for direct SQL
// plan checks.
func twoTableDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	el, err := db.CreateTable("element",
		engine.Column{Name: "id", Type: engine.TInt},
		engine.Column{Name: "parent", Type: engine.TInt},
		engine.Column{Name: "dewey_pos", Type: engine.TBytes},
		engine.Column{Name: "path", Type: engine.TInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		el.MustInsert(engine.NewInt(int64(i)), engine.NewInt(int64(i/4)),
			engine.NewBytes([]byte{byte(i / 16), byte(i % 16)}), engine.NewInt(int64(i%7)))
	}
	if _, err := el.CreateIndex("el_dewey", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	if _, err := el.CreateIndex("el_parent", "parent"); err != nil {
		t.Fatal(err)
	}
	pt, err := db.CreateTable("paths",
		engine.Column{Name: "id", Type: engine.TInt},
		engine.Column{Name: "path", Type: engine.TText},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		pt.MustInsert(engine.NewInt(int64(i)), engine.NewText("#a#b#"))
	}
	return db
}

func mustCheckSQL(t *testing.T, db *engine.DB, sql string) *Certificate {
	t.Helper()
	st, err := sqlast.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	cert, fs := CheckStatement(db, st, nil)
	for _, f := range fs {
		t.Errorf("unexpected finding for %q:\n%s", sql, f)
	}
	if t.Failed() {
		t.FailNow()
	}
	if cert.NormalHash == "" {
		t.Fatalf("certificate for %q has no normal-form hash", sql)
	}
	return cert
}

func TestCheckDirectSQL(t *testing.T) {
	db := twoTableDB(t)
	queries := []string{
		"SELECT e.id FROM element e",
		"SELECT DISTINCT e.id FROM element e WHERE e.parent = 3 ORDER BY e.dewey_pos",
		"SELECT COUNT(*) FROM element e WHERE e.path = 2",
		"SELECT d.id FROM element e, element d WHERE e.parent = 1 AND d.dewey_pos BETWEEN e.dewey_pos AND e.dewey_pos || X'FF'",
		"SELECT e.id FROM element e WHERE e.dewey_pos BETWEEN X'00' AND X'0A'",
		"SELECT e.id FROM element e WHERE e.dewey_pos > X'01' AND e.dewey_pos <= X'05'",
		"SELECT e.id FROM element e WHERE EXISTS (SELECT c.id FROM element c WHERE c.parent = e.id)",
		"SELECT e.id FROM element e WHERE e.path = (SELECT COUNT(*) FROM paths p WHERE p.id = e.path)",
		"SELECT e.id FROM element e, paths p WHERE e.path = p.id AND REGEXP_LIKE(p.path, '#a#b#')",
		"SELECT e.id AS id FROM element e WHERE e.parent = 1 UNION SELECT e.id AS id FROM element e WHERE e.parent = 2 ORDER BY id",
	}
	for _, q := range queries {
		cert := mustCheckSQL(t, db, q)
		if len(cert.Steps) == 0 {
			t.Errorf("certificate for %q records no steps", q)
		}
	}
}

// TestCheckUnnestedSQL certifies the shapes the unnest rewrite produces
// that the translators' statements never do: an alias two sub-selects
// declare (renamed in the plan, and read by a subplan that stays one),
// a nested EXISTS flattened twice, a paths alias inside the sub-select
// resolved to a key set and eliminated, a sub-select that projects a
// column, and unqualified names.
func TestCheckUnnestedSQL(t *testing.T) {
	db := twoTableDB(t)
	for _, q := range []string{
		"SELECT DISTINCT e.id FROM element e WHERE EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id) ORDER BY e.id",
		"SELECT DISTINCT e.id FROM element e WHERE EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id AND c.path = 1) AND " +
			"EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id AND c.path = 2 AND NOT EXISTS (SELECT NULL FROM element g WHERE g.parent = c.id)) ORDER BY e.id",
		"SELECT DISTINCT e.id FROM element e WHERE EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id AND " +
			"EXISTS (SELECT NULL FROM element g WHERE g.parent = c.id AND g.path = 3)) ORDER BY e.id",
		"SELECT DISTINCT e.id FROM element e WHERE e.parent = 2 AND EXISTS (SELECT NULL FROM element c, paths p WHERE c.parent = e.id AND c.path = p.id AND REGEXP_LIKE(p.path, '#a#b#'))",
		"SELECT DISTINCT e.path FROM element e WHERE EXISTS (SELECT c.id, e.id FROM element c WHERE c.parent = e.id AND c.path = 4) ORDER BY e.path",
		"SELECT DISTINCT id FROM element e WHERE path = 2 AND EXISTS (SELECT NULL FROM element c WHERE parent = e.id AND path = 3)",
		"SELECT DISTINCT e.id AS id FROM element e WHERE EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id) UNION " +
			"SELECT DISTINCT e.id AS id FROM element e WHERE e.parent = 2 AND EXISTS (SELECT NULL FROM element c WHERE c.parent = e.id) ORDER BY id",
	} {
		cert := mustCheckSQL(t, db, q)
		found := false
		for _, s := range cert.Steps {
			found = found || strings.HasPrefix(s, "unnest ")
		}
		if !found {
			t.Errorf("certificate for %q records no unnest obligation:\n%s", q, strings.Join(cert.Steps, "\n"))
		}
	}
}

func TestCertificateRecordsAccessJustification(t *testing.T) {
	db := twoTableDB(t)
	cert := mustCheckSQL(t, db, "SELECT e.id FROM element e WHERE e.parent = 3")
	found := false
	for _, s := range cert.Steps {
		if strings.Contains(s, "justified") {
			found = true
		}
	}
	if !found {
		t.Fatalf("certificate records no access justification:\n%s", strings.Join(cert.Steps, "\n"))
	}
}

func TestCheckerRejectsForeignShape(t *testing.T) {
	// The shape of one statement must not certify a different
	// statement: predicates differ.
	db := twoTableDB(t)
	stA, _ := sqlast.Parse("SELECT e.id FROM element e WHERE e.parent = 3")
	stB, _ := sqlast.Parse("SELECT e.id FROM element e WHERE e.parent = 4")
	sh, err := db.PlanShape(stA)
	if err != nil {
		t.Fatal(err)
	}
	_, fs := CheckShape(db, stB, sh)
	if len(fs) == 0 {
		t.Fatal("checker accepted the plan of a different statement")
	}
}

func TestVerifyPlanExecOption(t *testing.T) {
	db := twoTableDB(t)
	st, err := sqlast.Parse("SELECT DISTINCT e.id FROM element e WHERE e.parent = 3 ORDER BY e.id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunWithOptionsContext(nil, st, engine.ExecOptions{VerifyPlan: Verifier(db)}); err != nil {
		t.Fatalf("verified execution failed: %v", err)
	}
}

// TestVerifyPlanWithSlots: a statement with parameter slots verifies on
// the path that binds them, for the binding that compiles the plan and
// for later ones; the certificate names the params obligation; and a
// slot whose index key the plan probes is checked like a literal's.
func TestVerifyPlanWithSlots(t *testing.T) {
	db := twoTableDB(t)
	st := sqlast.MustParse("SELECT DISTINCT e.id FROM element e, paths p WHERE e.parent = ?1:int AND e.path = p.id AND p.path = ?2 ORDER BY e.id")
	prep := db.PrepareStmt(st)
	for _, parent := range []int64{3, 4, 999} {
		args := []engine.Value{engine.NewInt(parent), engine.NewText("#a#b#")}
		res, err := prep.RunArgs(nil, args, engine.ExecOptions{VerifyPlan: Verifier(db)})
		if err != nil {
			t.Fatalf("parent %d: verified execution failed: %v", parent, err)
		}
		if want := map[int64]int{3: 4, 4: 4, 999: 0}[parent]; len(res.Rows) != want {
			t.Errorf("parent %d: %d rows, want %d", parent, len(res.Rows), want)
		}
	}
	cert, fs := CheckStatement(db, st, []engine.Value{engine.NewInt(3), engine.NewText("#a#b#")})
	if len(fs) > 0 {
		t.Fatalf("findings: %v", fs)
	}
	if steps := strings.Join(cert.Steps, "\n"); !strings.Contains(steps, "params: slots [1 2]") {
		t.Errorf("certificate lacks the params obligation:\n%s", steps)
	}
}
