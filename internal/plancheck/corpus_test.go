package plancheck

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

func TestCheckCorpus(t *testing.T) {
	fs, stats, err := CheckCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
	if stats.Checked == 0 || stats.Omissions == 0 {
		t.Fatalf("suspicious stats: %+v", stats)
	}
	t.Logf("corpus: %+v", stats)
}

func TestCheckMatrixSample(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	fs, stats, err := CheckMatrix(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
	if stats.Checked == 0 {
		t.Fatalf("matrix checked nothing: %+v", stats)
	}
	t.Logf("matrix: %+v", stats)
}

// TestMutationsRejected proves the checker is not vacuous: every
// applicable seeded defect must be rejected with a counterexample.
func TestMutationsRejected(t *testing.T) {
	ws, err := corpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	applied := map[string]bool{}
	for _, w := range ws {
		ppf := w.NewPPFTranslator(nil)
		for _, q := range w.Queries {
			tr, err := ppf.Translate(q.XPath)
			if err != nil {
				continue
			}
			results, err := CheckMutations(w.Aware.DB, tr.Stmt)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			for _, r := range results {
				if !r.Applied {
					continue
				}
				if !r.Rejected {
					t.Errorf("%s: mutation %s was applied but not rejected", q.ID, r.Name)
					continue
				}
				if r.Finding == "" {
					t.Errorf("%s: mutation %s rejected without a counterexample", q.ID, r.Name)
				}
				applied[r.Name] = true
			}
		}
	}
	w := ws[0] // DBLP
	for _, m := range Mutations() {
		if !applied[m.Name] {
			t.Errorf("mutation %s never applied across the corpus — widen its applicability or the corpus", m.Name)
		}
	}

	omResults := OmissionMutations(w.Schema)
	for _, r := range omResults {
		if r.Applied && !r.Rejected {
			t.Errorf("omission mutation %s was not rejected", r.Name)
		}
		if r.Applied && r.Rejected {
			applied[r.Name] = true
		}
	}
	if len(applied) < 5 {
		t.Errorf("only %d distinct defects were exercised, want >= 5: %v", len(applied), applied)
	}
}

// TestVerifyPlanRejectsMutatedVerifier checks the ExecOptions wiring
// end to end: a verifier that always rejects must abort execution.
func TestVerifyPlanRejectsMutatedVerifier(t *testing.T) {
	db := twoTableDB(t)
	// verifyAs certificate-checks the executing plan against stmt.
	verifyAs := func(stmt sqlast.Statement) engine.ExecOptions {
		return engine.ExecOptions{VerifyPlan: func(tr engine.PlanTrace) error {
			_, fs := CheckShape(db, stmt, tr.Shape)
			if len(fs) > 0 {
				return &findingErr{fs[0]}
			}
			return nil
		}}
	}
	st, err := sqlast.Parse("SELECT e.id FROM element e WHERE e.parent = 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunWithOptionsContext(nil, st, verifyAs(st)); err != nil {
		t.Fatalf("clean plan rejected: %v", err)
	}
	// A verifier checking a *different* statement's logic must fail.
	other, _ := sqlast.Parse("SELECT e.id FROM element e WHERE e.parent = 99")
	if _, err := db.RunWithOptionsContext(nil, st, verifyAs(other)); err == nil {
		t.Fatal("mismatched plan passed verification")
	}
}

type findingErr struct{ f Finding }

func (e *findingErr) Error() string { return e.f.String() }

// Regression: both translators used to memoize alias->paths joins
// globally rather than per SELECT scope, so a subquery could
// reference a paths alias declared only in a *sibling* subquery
// (unknown table at compile time), and after scoping the memo, an
// inner re-join of an outer alias's paths row could shadow the
// enclosing join's name. These shapes — surfaced by the plancheck
// random matrix — must translate, compile, and certificate-check.
func TestScopedPathsJoinRegression(t *testing.T) {
	ws, err := corpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// Nested: the predicate re-inspects a path already joined in
		// the enclosing scope.
		"//sup[.//sup]",
		// Sibling EXISTS branches under the Edge translator each need
		// the context element's paths row.
		"/year//following-sibling::*[.//*]//book",
		// Schema translator: [.//*] expands to sibling EXISTS
		// branches that all inspect the outer element's path.
		"//inproceedings/preceding::inproceedings[.//*]/descendant-or-self::*",
	}
	om := &omissionLog{}
	var stats Stats
	for _, w := range ws {
		for _, tf := range translators(w, om) {
			for _, q := range queries {
				label := w.Name + "/" + tf.name + "/" + q
				for _, f := range checkOne(label, tf, q, om, &stats) {
					t.Errorf("%s: %s", label, f)
				}
			}
		}
	}
	if stats.Checked == 0 {
		t.Fatal("no plans checked")
	}
}
