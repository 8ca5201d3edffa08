package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// scanOrder lists the alias of every scan operator in execution
// order — the join order the plan actually committed to.
func scanOrder(reports []OpReport) []string {
	var order []string
	for _, r := range reports {
		if r.Kind != "scan" {
			continue
		}
		// Labels read "scan <alias>: <access path>".
		rest := strings.TrimPrefix(r.Label, "scan ")
		if i := strings.IndexByte(rest, ':'); i >= 0 {
			rest = rest[:i]
		}
		order = append(order, rest)
	}
	return order
}

func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestAdaptiveReplanOnSkew builds the situation the feedback loop
// exists for: a heavy-hitter value hidden past the synopsis histogram
// cap, so the planner's equality estimate (overflow mass spread
// uniformly) is off by three orders of magnitude and it leads the join
// with the "selective" skewed table. The first execution's OpStats
// expose the mis-estimate; the next plan-cache hit must re-plan with
// the observed cardinality, flip the join order, return identical
// results, and settle (no further re-plans once estimates match
// observations).
func TestAdaptiveReplanOnSkew(t *testing.T) {
	db := NewDB()
	a, err := db.CreateTable("A", Column{"j", TInt}, Column{"k", TInt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateIndex("A_j", "j"); err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("B", Column{"j", TInt}, Column{"tag", TText})
	if err != nil {
		t.Fatal(err)
	}

	// Fill A's k-histogram to HistCap with singletons, then push 1000
	// more singletons and 1000 copies of k=5000 into the overflow: the
	// synopsis estimates k=5000 at other/outside ≈ 1 row while the table
	// holds 1000. j is unique per row except that the heavy rows carry
	// j = 0..999, overlapping B's j = 0..9.
	var rows [][]Value
	for i := 0; i < 1024; i++ {
		rows = append(rows, []Value{NewInt(int64(10000 + i)), NewInt(int64(i))})
	}
	for i := 0; i < 1000; i++ {
		rows = append(rows, []Value{NewInt(int64(20000 + i)), NewInt(int64(2000 + i))})
	}
	for i := 0; i < 1000; i++ {
		rows = append(rows, []Value{NewInt(int64(i)), NewInt(5000)})
	}
	if _, err := a.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	var brows [][]Value
	for i := 0; i < 10; i++ {
		brows = append(brows, []Value{NewInt(int64(i)), NewText(fmt.Sprintf("b%d", i))})
	}
	if _, err := b.InsertBatch(brows); err != nil {
		t.Fatal(err)
	}

	st, err := sqlast.Parse("SELECT A.j, B.tag FROM A, B WHERE A.k = 5000 AND A.j = B.j")
	if err != nil {
		t.Fatal(err)
	}

	rep1, res1, err := db.AnalyzeReport(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.AdaptiveReplans(); got != 0 {
		t.Fatalf("replans after first execution = %d, want 0", got)
	}
	order1 := scanOrder(rep1)
	if len(order1) != 2 || order1[0] != "A" {
		t.Fatalf("initial plan should lead with the mis-estimated table A, got %v", order1)
	}

	rep2, res2, err := db.AnalyzeReport(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.AdaptiveReplans(); got != 1 {
		t.Fatalf("replans after second execution = %d, want 1", got)
	}
	order2 := scanOrder(rep2)
	if len(order2) != 2 || order2[0] != "B" {
		t.Fatalf("re-planned join order = %v, want B leading", order2)
	}
	if g, w := sortedRows(res2), sortedRows(res1); strings.Join(g, ";") != strings.Join(w, ";") {
		t.Fatalf("re-planned results differ:\n got %v\nwant %v", g, w)
	}
	if len(res1.Rows) != 10 {
		t.Fatalf("query returned %d rows, want 10", len(res1.Rows))
	}

	// Later executions: the order must stand (no flapping) and the plan
	// settle within the re-plan budget — by its estimates agreeing with
	// what it observes, not by the budget running out. Whether that
	// takes one more re-plan depends on how the planner probes A under
	// B: by the index on j, or by a hash on k = 5000, which the uniform
	// overflow estimate makes look just as selective when the distinct
	// sketch puts one value per outside key; that probe returns 1000
	// rows, and a second re-plan corrects its estimate.
	var rep []OpReport
	var before uint64
	for i := 3; i <= 3+maxAdaptiveReplans; i++ {
		before = db.AdaptiveReplans()
		var res *Result
		rep, res, err = db.AnalyzeReport(st, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := scanOrder(rep); strings.Join(got, ">") != strings.Join(order2, ">") {
			t.Fatalf("execution %d changed the re-planned join order: %v then %v", i, order2, got)
		}
		if g, w := sortedRows(res), sortedRows(res1); strings.Join(g, ";") != strings.Join(w, ";") {
			t.Fatalf("execution %d results differ:\n got %v\nwant %v", i, g, w)
		}
	}
	if got := db.AdaptiveReplans(); got != before {
		t.Fatalf("the last execution still re-planned (%d re-plans, then %d)", before, got)
	}
	for _, r := range rep {
		if r.HasEst && r.Loops > 0 && r.QError > replanQErrorThreshold {
			t.Errorf("settled plan still mis-estimates %q: q-error %.2f", r.Label, r.QError)
		}
	}
}

// TestAdaptiveReplanKeepsEarlierObservations drives a statement
// through two re-plans and checks that the second does not undo the
// first. Two stacked default selectivities hide that every A row
// passes its filters (estimated 30 of 3000), so the first plan leads
// with A; the first re-plan, knowing A yields 3000 rows in the lead,
// leads with B; but B's one matching key is A's heavy hitter (2000 of
// 3000 rows where the average key has 3), so probing A after B is
// mis-estimated too and a second re-plan follows. That re-plan must
// still know what A yielded in the lead: planned from the second
// execution's observations alone it would fall back on the refuted
// estimate of 30, lead with A again, and — the re-plan budget spent —
// keep that plan. No column passes HistCap, so every estimate here is
// exact arithmetic on the histogram or a named default.
func TestAdaptiveReplanKeepsEarlierObservations(t *testing.T) {
	db := NewDB()
	a, err := db.CreateTable("A", Column{"j", TInt}, Column{"s", TText})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("B", Column{"j", TInt}, Column{"tag", TText})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 2000; i++ {
		rows = append(rows, []Value{NewInt(0), NewText("x")})
	}
	for i := 1; i <= 1000; i++ {
		rows = append(rows, []Value{NewInt(int64(i)), NewText("x")})
	}
	if _, err := a.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	brows := [][]Value{{NewInt(0), NewText("b0")}}
	for i := 1; i < 100; i++ {
		brows = append(brows, []Value{NewInt(int64(5000 + i)), NewText(fmt.Sprintf("b%d", i))})
	}
	if _, err := b.InsertBatch(brows); err != nil {
		t.Fatal(err)
	}
	st, err := sqlast.Parse("SELECT A.j, B.tag FROM A, B WHERE LENGTH(A.s) = 1 AND LENGTH(A.s) < 5 AND A.j = B.j")
	if err != nil {
		t.Fatal(err)
	}

	wantLead := []string{"A", "B", "B", "B"}
	wantReplans := []uint64{0, 1, 2, 2}
	var first []string
	for i := range wantLead {
		rep, res, err := db.AnalyzeReport(st, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.AdaptiveReplans(); got != wantReplans[i] {
			t.Fatalf("replans after execution %d = %d, want %d", i+1, got, wantReplans[i])
		}
		if order := scanOrder(rep); len(order) != 2 || order[0] != wantLead[i] {
			t.Fatalf("execution %d join order = %v, want %s leading", i+1, order, wantLead[i])
		}
		rows := sortedRows(res)
		if i == 0 {
			first = rows
		} else if strings.Join(rows, ";") != strings.Join(first, ";") {
			t.Fatalf("execution %d results differ from the first plan's", i+1)
		}
		if i == len(wantLead)-1 {
			for _, r := range rep {
				if r.HasEst && r.Loops > 0 && r.QError > replanQErrorThreshold {
					t.Errorf("settled plan still mis-estimates %q: q-error %.2f", r.Label, r.QError)
				}
			}
		}
	}
}

// TestFirstMatchFeedbackIsALowerBound is QD2's shape: the result alias
// drives, its ancestors come through prefix probes estimated at
// defaultDeweyFanout, and a trailing EXISTS makes the ancestor step run
// under first match. Every leaf has five ancestors — the estimate of 8
// is within the re-plan threshold of that — but the second one probed
// already matches, so the step reports two rows consumed per leaf. Taken
// for the fan-out that is a q-error of 4 and a re-plan the truth does
// not ask for (EXPERIMENTS.md E11 lost one to it on Edge QD2); taken for
// the lower bound it is, it refutes nothing: no execution re-plans.
func TestFirstMatchFeedbackIsALowerBound(t *testing.T) {
	db := NewDB()
	anc, err := db.CreateTable("anc", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	yr, err := db.CreateTable("yr", Column{"par", TInt}, Column{"val", TInt})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := db.CreateTable("leaf", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	const leaves = 300
	for i := 0; i < leaves; i++ {
		pos := []byte{1, byte(i/16) + 1, byte(i%16) + 1, 1, 1, 1}
		leaf.MustInsert(NewInt(int64(i)), NewBytes(pos))
		for depth := 1; depth < len(pos); depth++ {
			if p := string(pos[:depth]); !seen[p] {
				seen[p] = true
				id := int64(len(seen))
				anc.MustInsert(NewInt(id), NewBytes(pos[:depth:depth]))
				// Only the ancestors at depth two hold a year that passes.
				val := int64(0)
				if depth == 2 {
					val = 9
				}
				yr.MustInsert(NewInt(id), NewInt(val))
			}
		}
	}
	for _, ix := range []struct {
		t    *Table
		name string
		col  string
	}{{anc, "anc_pk", "id"}, {anc, "anc_dp", "dewey_pos"}, {yr, "yr_par", "par"}, {leaf, "leaf_pk", "id"}} {
		if _, err := ix.t.CreateIndex(ix.name, ix.col); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := runSQL(db, "SELECT COUNT(*) FROM leaf s, anc a WHERE s.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF'")
	if err != nil {
		t.Fatal(err)
	}
	if fan := float64(pairs.Rows[0][0].I) / leaves; qError(defaultDeweyFanout, fan) > replanQErrorThreshold {
		t.Fatalf("fixture: %v ancestors a leaf, the estimate of %d is off by itself", fan, defaultDeweyFanout)
	}

	st := sqlast.MustParse("SELECT DISTINCT s.id, s.dewey_pos FROM anc a, leaf s WHERE EXISTS " +
		"(SELECT NULL FROM yr y WHERE y.par = a.id AND y.val >= 5) AND s.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY s.dewey_pos")
	var first string
	for i := 0; i < 2+maxAdaptiveReplans; i++ {
		rep, res, err := db.AnalyzeReport(st, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != leaves {
			t.Fatalf("execution %d: %d rows, want %d", i+1, len(res.Rows), leaves)
		}
		if order := strings.Join(scanOrder(rep), ">"); i == 0 {
			first = order
			if order != "s>a>y" {
				t.Fatalf("join order %s, want the result alias driving its ancestors, the EXISTS trailing", order)
			}
		} else if order != first {
			t.Fatalf("execution %d changed the join order: %s then %s", i+1, first, order)
		}
		for _, r := range rep {
			if strings.HasPrefix(r.Label, "scan a: index prefix lookups") {
				if per := float64(r.RowsOut) / float64(r.Loops); per != 2 {
					t.Fatalf("the ancestor step consumed %v rows a leaf, want 2: first match did not stop it", per)
				}
			}
			if r.HasEst && r.Loops > 0 && r.QError > replanQErrorThreshold {
				t.Errorf("execution %d: %q reports q-error %.2f on a plan whose estimates hold", i+1, r.Label, r.QError)
			}
		}
		if got := db.AdaptiveReplans(); got != 0 {
			t.Fatalf("execution %d re-planned (%d re-plans) on a truncated count", i+1, got)
		}
	}
}

// TestSettledHitAllocatesNothing: a plan-cache hit on a plan that may
// still be re-planned replays the last execution's frame against the
// plan's estimates. While they stand — the common case — that costs no
// allocation: the observation maps a re-plan is compiled from are built
// only past replanQErrorThreshold. The statement carries a correlated
// subplan (an EXISTS under OR stays one), whose steps are checked too.
func TestSettledHitAllocatesNothing(t *testing.T) {
	db, _ := buildPair(t, 7, 300)
	st := sqlast.MustParse("SELECT a.id, b.id FROM n a, n b WHERE b.par = a.id AND " +
		"(a.val = 1 OR EXISTS (SELECT NULL FROM n c WHERE c.par = b.id))")
	for i := 0; i <= maxAdaptiveReplans; i++ {
		if _, err := run(db, st); err != nil {
			t.Fatal(err)
		}
	}
	key := sqlast.Render(st)
	cs, err := db.compiledFor(st, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb := cs.feedback.Load()
	if cs.replans >= maxAdaptiveReplans || fb == nil {
		t.Fatalf("plan has %d re-plans and feedback %v: the test needs one a hit still checks", cs.replans, fb != nil)
	}
	if q := cs.worstQError(*fb); q > replanQErrorThreshold {
		t.Fatalf("plan's worst q-error is %.2f: the test needs one that stands", q)
	}
	if !strings.Contains(renderCompiled(cs, nil), "exists subplan") {
		t.Fatalf("plan has no subplan:\n%s", renderCompiled(cs, nil))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := db.compiledFor(st, key, nil); err != nil || got != cs {
			t.Fatalf("hit returned another plan (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a settled plan's hit allocates %v times, want 0", allocs)
	}
}
