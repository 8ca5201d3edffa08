package plancheck

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
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

// scopedPathsQueries are shapes surfaced by the random matrix in which
// a predicate re-inspects the path of an element bound in an enclosing
// select (TestScopedPathsJoinRegression). Their plans keep a resolved
// paths alias — a conjunct reads it beside an alias joined to the
// enclosing select — which the fig3 statements never do.
var scopedPathsQueries = []string{
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

// TestMutationsRejected proves the checker is not vacuous: every
// applicable seeded defect must be rejected with a counterexample.
func TestMutationsRejected(t *testing.T) {
	ws, err := corpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	applied := map[string]bool{}
	om := &omissionLog{}
	for _, w := range ws {
		queries := append([]bench.Query(nil), w.Queries...)
		for i, q := range scopedPathsQueries {
			queries = append(queries, bench.Query{ID: fmt.Sprintf("scoped[%d]", i), XPath: q})
		}
		for _, tf := range translators(w, om) {
			for _, q := range queries {
				sh, args, err := tf.tr.Prepare(q.XPath)
				if err != nil {
					continue
				}
				// The statement Translate returns, and the one with the
				// shape's slots open.
				results, err := CheckMutations(tf.db, sh.Bind(args).Stmt, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.ID, tf.name, err)
				}
				if len(args) > 0 {
					slotted, err := CheckMutations(tf.db, sh.Stmt, args)
					if err != nil {
						t.Fatalf("%s/%s: %v", q.ID, tf.name, err)
					}
					results = append(results, slotted...)
				}
				for _, r := range results {
					if !r.Applied {
						continue
					}
					if !r.Rejected {
						t.Errorf("%s/%s: mutation %s was applied but not rejected", q.ID, tf.name, r.Name)
						continue
					}
					if r.Finding == "" {
						t.Errorf("%s/%s: mutation %s rejected without a counterexample", q.ID, tf.name, r.Name)
					}
					// The set mutants leave everything but the set intact:
					// only the re-derivation can have caught them.
					switch r.Name {
					case "drop-resolved-key", "add-resolved-key", "corrupt-pair-set":
						if !strings.Contains(r.Finding, "["+ruleResolution+"]") || !strings.Contains(r.Finding, "differs") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the resolution re-derivation", q.ID, tf.name, r.Name, r.Finding)
						}
					// The proof mutants keep the pipeline consistent with the
					// evidence they forge: only its re-derivation catches them.
					case "drop-needed-distinct", "drop-needed-sort", "first-match-on-projected-alias",
						"concatenated-key-probe-claimed-ordered", "union-merge-of-unordered-branch":
						if !strings.Contains(r.Finding, "["+ruleImplied+"]") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the implied-property obligation", q.ID, tf.name, r.Name, r.Finding)
						}
					// The unnest mutants forge the evidence of a merge that was
					// not legal, or break the plan under a legal one: the
					// obligation's own side conditions must be what fails — or,
					// for the run, the implied obligation that reads the same
					// evidence.
					case "unnest-under-not", "unnest-under-or", "unnest-in-bag-select", "project-existential-alias", "dropped-member-conjunct":
						if !strings.Contains(r.Finding, "["+ruleUnnest+"]") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the unnest obligation", q.ID, tf.name, r.Name, r.Finding)
						}
					// The slot mutants treat a slot as the literal it was compiled
					// with; other obligations may object too, the params one must.
					case "omit-by-peeked-value", "resolve-reads-param", "slot-kind-mismatch", "slot-out-of-range", "param-baked-as-literal":
						if !strings.Contains(strings.Join(r.Rules, " "), ruleParams) {
							t.Errorf("%s/%s: mutation %s rejected by %v, want the params obligation among them", q.ID, tf.name, r.Name, r.Rules)
						}
					// The restriction mutants leave the filters alone: only the
					// access-path rule's key-test requirement sees them.
					case "hash-restricted-by-untested-key-set", "hash-restricted-on-other-column":
						if !strings.Contains(r.Finding, "[access-path]") || !strings.Contains(r.Finding, "building the hash over its rows") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the access-path rule", q.ID, tf.name, r.Name, r.Finding)
						}
					case "dewey-scoped-by-untested-key-set", "dewey-scoped-on-other-column":
						if !strings.Contains(r.Finding, "[access-path]") || !strings.Contains(r.Finding, "running the step over its rows") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the access-path rule", q.ID, tf.name, r.Name, r.Finding)
						}
					case "first-match-run-referenced-later":
						if !strings.Contains(r.Finding, "["+ruleImplied+"]") || !strings.Contains(r.Finding, "first match from step") {
							t.Errorf("%s/%s: mutation %s rejected by %s, want the first-match run re-derivation", q.ID, tf.name, r.Name, r.Finding)
						}
					}
					applied[r.Name] = true
				}
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

// dimFixture is a three-row dimension — unique id, a g that holds 10
// twice — under a four-row fact table, for the resolution mutants no
// corpus plan can seed.
func dimFixture(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	dim, err := db.CreateTable("dim", engine.Column{Name: "id", Type: engine.TInt},
		engine.Column{Name: "g", Type: engine.TInt}, engine.Column{Name: "path", Type: engine.TText})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"/a", "/a/b", "/x"} {
		dim.MustInsert(engine.NewInt(int64(i+1)), engine.NewInt(int64(10*(1+i/2))), engine.NewText(p)) // g: 10, 10, 20
	}
	fact, err := db.CreateTable("fact", engine.Column{Name: "id", Type: engine.TInt},
		engine.Column{Name: "pid", Type: engine.TInt}, engine.Column{Name: "g", Type: engine.TInt})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		fact.MustInsert(engine.NewInt(i), engine.NewInt(1+i%3), engine.NewInt(10*(1+i%2)))
	}
	for _, col := range []string{"id", "g"} {
		if _, err := dim.CreateIndex("dim_"+col, col); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEliminatedAliasStillProjectedRejected: the corpus's kept aliases
// are kept by conjuncts, and a forged elimination of one also trips
// the binding-order guard. An alias kept by the projection alone does
// not — its elimination leaves every filter and access key bound and
// the conjunct multiset balanced — so only the no-other-reference
// check can reject it.
func TestEliminatedAliasStillProjectedRejected(t *testing.T) {
	db := dimFixture(t)
	// f.id = 1 binds f first, so d's join and pattern are filters of
	// d's own step and leave the plan with it.
	st, err := sqlast.Parse("SELECT f.id, d.path FROM fact f, dim d WHERE f.id = 1 AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/a')")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := db.PlanShape(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, fs := CheckShape(db, st, sh); len(fs) > 0 {
		t.Fatalf("honest plan rejected: %s", fs[0])
	}
	if rs := sh.Select.Resolved; len(rs) != 1 || rs[0].Eliminated || rs[0].KeptBy == "" || sh.Select.Steps[0].Alias != "f" {
		t.Fatalf("fixture statement should bind f first and keep d for its projection: %+v", sh.Select)
	}
	for _, m := range Mutations() {
		if m.Name != "eliminate-referenced-alias" {
			continue
		}
		if !m.Apply(sh) {
			t.Fatal("mutation did not apply")
		}
	}
	_, fs := CheckShape(db, st, sh)
	if len(fs) != 1 || fs[0].Rule != ruleResolution || !strings.Contains(fs[0].Detail, "projected column d.path still references it") {
		t.Errorf("want exactly the no-other-reference finding, got %v", fs)
	}
}

// TestNonUniqueKeyEliminationRejected is the mutant no corpus plan can
// seed, since the shredders' path ids are unique: a join over a
// dimension column that holds a value twice, forged into an
// elimination whose every other piece of evidence — join, conjuncts,
// the key set itself, the retained test — is in order. Only the
// uniqueness re-check stands between it and a join that silently stops
// multiplying rows.
func TestNonUniqueKeyEliminationRejected(t *testing.T) {
	db := dimFixture(t)

	// The honest plan of the join on the unique id is certified...
	unique, err := sqlast.Parse("SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a')")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := db.PlanShape(unique)
	if err != nil {
		t.Fatal(err)
	}
	if _, fs := CheckShape(db, unique, sh); len(fs) > 0 {
		t.Fatalf("honest plan rejected: %s", fs[0])
	}
	sel := sh.Select
	if len(sel.Resolved) != 1 || !sel.Resolved[0].Eliminated || len(sel.Steps) != 1 {
		t.Fatalf("fixture statement was not resolved as expected: %+v", sel.Resolved)
	}
	// ...and its shape, moved onto the non-unique column g, is what a
	// planner without the uniqueness test would emit for this statement.
	other, err := sqlast.Parse("SELECT f.id FROM fact f, dim d WHERE f.g = d.g AND REGEXP_LIKE(d.path, '^/a')")
	if err != nil {
		t.Fatal(err)
	}
	if real, err := db.PlanShape(other); err != nil || len(real.Select.Resolved) != 0 {
		t.Fatalf("the engine resolved a join on a non-unique column: %+v, %v", real, err)
	}
	r := &sel.Resolved[0]
	r.Key, r.FactCol = "g", "g"
	r.Keys = []int64{10} // the g of /a and of /a/b
	r.Join.Expr = &sqlast.Binary{Op: sqlast.OpEq, L: sqlast.C("f", "g"), R: sqlast.C("d", "g")}
	step := &sel.Steps[0]
	step.Access.Col, step.Access.Index, step.Access.IndexCols = "g", "", nil
	for i, f := range step.Filters {
		if _, _, _, ok := setMarker(f.Expr); ok {
			step.Filters[i].Expr = &sqlast.Func{Name: engine.MarkerKeySet, Args: []sqlast.Expr{sqlast.C("f", "g"), sqlast.Int(0)}}
		}
	}
	_, fs := CheckShape(db, other, sh)
	if len(fs) == 0 {
		t.Fatal("elimination over a non-unique key was certified")
	}
	if got := fs[0].String(); !strings.Contains(got, "["+ruleResolution+"]") || !strings.Contains(got, "not unique: rows 0 and 1 both hold 10") {
		t.Errorf("rejected without the uniqueness counterexample: %s", got)
	}
	if len(fs) != 1 {
		t.Errorf("the forged shape should fail the uniqueness check alone, got %d findings: %v", len(fs), fs)
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
	om := &omissionLog{}
	var stats Stats
	for _, w := range ws {
		for _, tf := range translators(w, om) {
			for _, q := range scopedPathsQueries {
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

// pathsSurvey tallies, over the selects of one plan shape, what became
// of every alias over the paths relation, and the steps the deleted
// vectorised filter pass would still have served.
type pathsSurvey struct {
	eliminated, kept int
	keptBy           map[string]int
	// outerJoined counts the aliases the rewrite does not reach because
	// their one equality joins a column of an enclosing select;
	// unresolved lists any other alias it left alone.
	outerJoined int
	unresolved  []string
	// vectorisable lists the steps the deleted pass would have batched:
	// a leading REGEXP_LIKE over the step's own table, outside
	// correlated subplans; inSubplans counts such steps inside them,
	// where every batch is one row and the pass batched nothing.
	vectorisable []string
	inSubplans   int
}

func (ps *pathsSurvey) add(sh *engine.SelectShape, subplan bool) {
	resolved := map[string]bool{}
	for _, r := range sh.Resolved {
		if r.Table != "paths" {
			continue
		}
		resolved[r.Alias] = true
		if r.Eliminated {
			ps.eliminated++
			continue
		}
		ps.kept++
		if ps.keptBy == nil {
			ps.keptBy = map[string]int{}
		}
		what, _, _ := strings.Cut(r.KeptBy, " ") // conjunct, projection or ordering (key)
		ps.keptBy[what]++
	}
	local := map[string]bool{}
	for _, s := range sh.Steps {
		local[s.Alias] = true
	}
	for _, s := range sh.Steps {
		// A filterless scan of paths is the translator's provably empty
		// select ('FROM paths WHERE 1 = 0'), not a dimension.
		if s.Table == "paths" && !resolved[s.Alias] && len(s.Filters) > 0 {
			outer := false
			for _, f := range s.Filters {
				b, ok := f.Expr.(*sqlast.Binary)
				if !ok || b.Op != sqlast.OpEq {
					continue
				}
				for _, ref := range f.Refs {
					outer = outer || !local[ref]
				}
			}
			if outer {
				ps.outerJoined++
			} else {
				ps.unresolved = append(ps.unresolved, s.Alias+": "+s.Filters[0].Text())
			}
		}
		// The vectorised pass served a leading run of REGEXP_LIKE
		// filters with a literal pattern over the step's own table.
		if len(s.Filters) > 0 {
			if f, ok := s.Filters[0].Expr.(*sqlast.Func); ok && f.Name == "REGEXP_LIKE" && len(f.Args) == 2 {
				c, isCol := f.Args[0].(*sqlast.Col)
				_, isLit := f.Args[1].(*sqlast.StrLit)
				switch {
				case !isCol || !isLit || c.Table != s.Alias:
				case subplan:
					ps.inSubplans++
				default:
					ps.vectorisable = append(ps.vectorisable, s.Alias+" ("+s.Table+", "+s.Access.Kind+"): "+s.Filters[0].Text())
				}
			}
		}
	}
	for _, sp := range sh.Subplans {
		ps.add(sp.Select, true)
	}
}

func (ps *pathsSurvey) addStmt(sh *engine.StmtShape) {
	if sh.Select != nil {
		ps.add(sh.Select, false)
		return
	}
	for _, br := range sh.Union.Branches {
		ps.add(br, false)
	}
}

// TestPathsAliasesResolved pins what plan-time resolution reaches. In
// the plans of the 50 golden statements (the benchmark's statements)
// every alias over paths is eliminated; over the random matrix every
// one is eliminated or kept by a named reference, except the aliases
// joined to a column of an enclosing select, which the rewrite does
// not reach (and which keep the alias they share a conjunct with). No
// plan has a step the vectorised REGEXP_LIKE pass — deleted with this
// change — would have batched: the ones left scan paths inside
// correlated subplans, which run one row to a batch.
func TestPathsAliasesResolved(t *testing.T) {
	ws, err := corpusWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*bench.Workload{"dblp": ws[0], "xmark": ws[1], "adhoc": ws[1]}
	data, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_sql.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var golden pathsSurvey
	statements := 0
	lines := strings.Split(string(data), "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "-- ") {
			continue
		}
		label, _, _ := strings.Cut(strings.TrimPrefix(lines[i], "-- "), ":")
		parts := strings.Split(label, "/")
		w := byName[parts[0]]
		db := w.Aware.DB
		if parts[2] == "edge" {
			db = w.Edge.DB
		}
		st, err := sqlast.Parse(lines[i+1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sh, err := db.PlanShape(st)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		golden.addStmt(sh)
		statements++
	}
	if statements != 50 {
		t.Fatalf("golden file has %d statements, want 50", statements)
	}
	t.Logf("golden: %d statements, paths aliases: %d eliminated, %d kept %v, %d joined to an enclosing select, %d unresolved; vectorisable steps: %d (+%d in subplans)",
		statements, golden.eliminated, golden.kept, golden.keptBy, golden.outerJoined, len(golden.unresolved), len(golden.vectorisable), golden.inSubplans)
	if golden.eliminated == 0 || golden.kept != 0 || golden.outerJoined != 0 || len(golden.unresolved) != 0 {
		t.Errorf("golden statements: want every paths alias eliminated; kept %v, unresolved %v", golden.keptBy, golden.unresolved)
	}
	if len(golden.vectorisable) != 0 || golden.inSubplans != 0 {
		t.Errorf("golden statements: steps still lead with a REGEXP_LIKE over their own table: %v (+%d in subplans)", golden.vectorisable, golden.inSubplans)
	}

	var matrix pathsSurvey
	om := &omissionLog{}
	n := 2500 // with seed 1, `make plancheck`'s matrix
	if testing.Short() {
		n = 50
	}
	for _, w := range ws {
		tfs := translators(w, om)
		gen := newQueryGen(w, rand.New(rand.NewSource(1)))
		for i := 0; i < n; i++ {
			q := gen.next()
			for _, tf := range tfs {
				tr, err := tf.tr.Translate(q)
				if err != nil {
					continue
				}
				sh, err := tf.db.PlanShape(tr.Stmt)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				matrix.addStmt(sh)
			}
		}
	}
	t.Logf("matrix: paths aliases: %d eliminated, %d kept %v, %d joined to an enclosing select, %d unresolved; vectorisable steps: %d (+%d in subplans)",
		matrix.eliminated, matrix.kept, matrix.keptBy, matrix.outerJoined, len(matrix.unresolved), len(matrix.vectorisable), matrix.inSubplans)
	if matrix.eliminated == 0 {
		t.Error("matrix: no paths alias eliminated")
	}
	for _, u := range matrix.unresolved {
		t.Errorf("matrix: paths alias neither resolved nor joined to an enclosing select: %s", u)
	}
	for _, v := range matrix.vectorisable {
		t.Errorf("matrix: a step outside the correlated subplans still leads with a REGEXP_LIKE over its own table: %s", v)
	}
}
