package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlast"
)

// dimDB is the plan-time resolution fixture: a fact table hanging off
// a small dimension through fact.pid = dim.id (dim_pk is unique;
// dim.g is indexed but not unique). The data covers the join's edge
// cases: a fact row with a NULL pid, one with a dangling pid, and a
// dimension row with a NULL id.
func dimDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	dim, err := db.CreateTable("dim", Column{"id", TInt}, Column{"g", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		id   Value
		g    int64
		path string
	}{
		{NewInt(1), 10, "/a"}, {NewInt(2), 10, "/a/b"}, {NewInt(3), 20, "/a/b/c"},
		{NewInt(4), 20, "/x"}, {NewInt(5), 30, "/x/y"}, {Null, 40, "/a/b/null"},
	} {
		dim.MustInsert(r.id, NewInt(r.g), NewText(r.path))
	}
	fact, err := db.CreateTable("fact", Column{"id", TInt}, Column{"pid", TInt}, Column{"g", TInt})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][3]int64{{1, 1, 10}, {2, 2, 10}, {3, 3, 20}, {4, 4, 20}, {5, 5, 30}, {6, 2, 10}, {7, -1, 20}, {8, 9, 30}} {
		pid := NewInt(r[1])
		if r[1] < 0 {
			pid = Null
		}
		fact.MustInsert(NewInt(r[0]), pid, NewInt(r[2]))
	}
	for _, ix := range []struct {
		t    *Table
		n, c string
	}{{dim, "dim_pk", "id"}, {dim, "dim_g", "g"}, {fact, "fact_pk", "id"}, {fact, "fact_pid", "pid"}} {
		if _, err := ix.t.CreateIndex(ix.n, ix.c); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func explainOf(t testing.TB, db *DB, sql string) string {
	t.Helper()
	st, err := sqlast.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(st)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	return plan
}

func rowTexts(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestResolveEligibility runs the rewrite's positive case, its
// eligibility negatives and its edge cases on hand-written SQL. Every
// case pins the literal rows (worked out by hand from dimDB; the
// parent commit returns the same) and what the plan must and must not
// hold.
func TestResolveEligibility(t *testing.T) {
	db := dimDB(t)
	cases := []struct {
		name, sql   string
		rows        []string
		plan, notIn []string
	}{
		{
			name: "eliminated",
			sql:  "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a/b') ORDER BY f.id",
			// dim 2 and 3 match (the NULL-id row matches the pattern and
			// joins nothing); fact 7 has a NULL pid.
			rows:  []string{"2", "3", "6"},
			plan:  []string{"f.pid IN <2 keys of d>"},
			notIn: []string{"scan d:", "REGEXP_LIKE("},
		},
		{
			name:  "path projected keeps the alias",
			sql:   "SELECT f.id, d.path FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a/b') ORDER BY f.id",
			rows:  []string{"2|/a/b", "3|/a/b/c", "6|/a/b"},
			plan:  []string{"scan d:", "f.pid IN <2 keys of d>", "REGEXP_LIKE(d.path, '^/a/b')", "f.pid = d.id"},
			notIn: nil,
		},
		{
			name: "nested EXISTS keeps the alias",
			sql: "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') AND " +
				"EXISTS (SELECT NULL FROM fact f2 WHERE f2.g = d.g AND f2.id <> f.id) ORDER BY f.id",
			rows: []string{"1", "2", "3", "6"},
			plan: []string{"scan d:", "f.pid IN <3 keys of d>", "exists subplan"},
		},
		{
			name: "non-unique join column",
			sql:  "SELECT f.id FROM fact f, dim d WHERE f.g = d.g AND REGEXP_LIKE(d.path, '^/a') ORDER BY f.id",
			// dim 1 and 2 share g = 10: facts 1, 2, 6 join twice.
			rows:  []string{"1", "1", "2", "2", "3", "4", "6", "6", "7"},
			plan:  []string{"scan d:"},
			notIn: []string{" keys of d>"},
		},
		{
			name:  "inequality is no join",
			sql:   "SELECT f.id FROM fact f, dim d WHERE f.pid <> d.id AND REGEXP_LIKE(d.path, '^/x/y') ORDER BY f.id",
			rows:  []string{"1", "2", "3", "4", "6", "8"},
			plan:  []string{"scan d:"},
			notIn: []string{" keys of d>"},
		},
		{
			name:  "sargable conjunct is left to its index",
			sql:   "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND d.g = 20 ORDER BY f.id",
			rows:  []string{"3", "4"},
			plan:  []string{"scan d: index lookup dim_g"},
			notIn: []string{" keys of d>"},
		},
		{
			name:  "empty key set",
			sql:   "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/nowhere') ORDER BY f.id",
			rows:  []string{},
			plan:  []string{"scan f: key-set probes fact_pid <0 keys of d>"},
			notIn: []string{"scan d:"},
		},
		{
			name:  "every key",
			sql:   "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/') ORDER BY f.id",
			rows:  []string{"1", "2", "3", "4", "5", "6"},
			plan:  []string{"f.pid IN <5 keys of d>"},
			notIn: []string{"scan d:"},
		},
		{
			name: "pair set",
			sql: "SELECT f.id, h.id FROM fact f, dim d, fact h, dim e WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') AND " +
				"h.pid = e.id AND h.g = f.g AND REGEXP_LIKE(SUBSTR(e.path, LENGTH(d.path) + 1), '^/[a-z]$') ORDER BY f.id, h.id",
			// (d, e) pairs whose suffix is one step: (/a, /a/b),
			// (/a/b, /a/b/c) and — the conjunct compares lengths, not
			// prefixes — (/a, /x/y); with h.g = f.g only fact 1 (/a,
			// g 10) meets facts 2 and 6 (/a/b, g 10).
			rows:  []string{"1|2", "1|6"},
			plan:  []string{"(f.pid, h.pid) IN <3 key pairs of d, e>"},
			notIn: []string{"scan d:", "scan e:", "REGEXP_LIKE("},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, db, tc.sql)
			if got := rowTexts(res); !reflect.DeepEqual(got, tc.rows) {
				t.Errorf("rows = %v, want %v", got, tc.rows)
			}
			plan := explainOf(t, db, tc.sql)
			for _, w := range tc.plan {
				if !strings.Contains(plan, w) {
					t.Errorf("plan lacks %q:\n%s", w, plan)
				}
			}
			for _, w := range tc.notIn {
				if strings.Contains(plan, w) {
					t.Errorf("plan holds %q:\n%s", w, plan)
				}
			}
		})
	}
}

// TestResolveEmptyKeySetScansNothing: a pattern no path matches is
// known at plan time, and the plan then reads no row of any table —
// the empty probe step binds first.
func TestResolveEmptyKeySetScansNothing(t *testing.T) {
	db := dimDB(t)
	st, err := sqlast.Parse("SELECT f.id, h.id FROM fact h, fact f, dim d WHERE h.g = f.g AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/nowhere')")
	if err != nil {
		t.Fatal(err)
	}
	reports, res, err := db.analyzeReport(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
	for _, r := range reports {
		if r.Kind == "scan" && r.RowsOut != 0 {
			t.Errorf("%s read %d rows, want 0", r.Label, r.RowsOut)
		}
	}
	if !strings.HasPrefix(reports[0].Label, "scan f: key-set probes") {
		t.Errorf("first operator is %q, want the empty key-set probe of f", reports[0].Label)
	}
}

// resolvedDimQ is a join the resolution rewrite turns into key-set
// probes of fact, reading dim at plan time.
const resolvedDimQ = "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a/b') ORDER BY f.id"

// TestResolveHeuristicOnlyPlansAsWritten: under ForceHeuristic the
// planner does not look at the data, so the rewrite is off and the
// dimension is a step again.
func TestResolveHeuristicOnlyPlansAsWritten(t *testing.T) {
	db := dimDB(t)
	ForceHeuristic(db, true)
	if plan := explainOf(t, db, resolvedDimQ); !strings.Contains(plan, "scan d:") || strings.Contains(plan, " keys of d>") {
		t.Errorf("heuristic-only plan was rewritten:\n%s", plan)
	}
	if got := rowTexts(mustRun(t, db, resolvedDimQ)); !reflect.DeepEqual(got, []string{"2", "3", "6"}) {
		t.Errorf("rows = %v", got)
	}
}

// TestForceHeuristicDropsCachedPlans: switching the planner's mode on a
// DB that has the statement's plan cached plans it again in the new
// mode, in either direction, rather than serving the cached plan.
func TestForceHeuristicDropsCachedPlans(t *testing.T) {
	db := dimDB(t)
	for _, heuristic := range []bool{false, true, false} {
		ForceHeuristic(db, heuristic)
		plan := explainOf(t, db, resolvedDimQ)
		if resolved := strings.Contains(plan, "key-set probes fact_pid <2 keys of d>"); resolved == heuristic {
			t.Errorf("heuristic %v: plan resolved %v:\n%s", heuristic, resolved, plan)
		}
		if got := rowTexts(mustRun(t, db, resolvedDimQ)); !reflect.DeepEqual(got, []string{"2", "3", "6"}) {
			t.Errorf("heuristic %v: rows = %v", heuristic, got)
		}
	}
}

// sizedDimDB builds a dimension of n rows (paths /p0 … /p<n-1>, unique
// ids) and a three-row fact table over it.
func sizedDimDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	dim, err := db.CreateTable("dim", Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i)), NewText(fmt.Sprintf("/p%d", i))}
	}
	if _, err := dim.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := dim.CreateIndex("dim_pk", "id"); err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable("fact", Column{"id", TInt}, Column{"pid", TInt})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		fact.MustInsert(NewInt(i), NewInt(i))
	}
	return db
}

// TestResolveBounds exercises both sides of the three constants that
// bound plan-time resolution (joinorder.go).
func TestResolveBounds(t *testing.T) {
	const q = "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/p[12]$') ORDER BY f.id"
	t.Run("maxResolveRows", func(t *testing.T) {
		db := sizedDimDB(t, maxResolveRows)
		if plan := explainOf(t, db, q); !strings.Contains(plan, "<2 keys of d>") {
			t.Errorf("a dimension of maxResolveRows rows was not resolved:\n%s", plan)
		}
		db.Table("dim").MustInsert(NewInt(maxResolveRows), NewText("/one-more"))
		if plan := explainOf(t, db, q); strings.Contains(plan, " keys of d>") || !strings.Contains(plan, "scan d:") {
			t.Errorf("a dimension of maxResolveRows+1 rows was resolved:\n%s", plan)
		}
		for _, n := range []int{maxResolveRows, maxResolveRows + 1} {
			if got := rowTexts(mustRun(t, sizedDimDB(t, n), q)); !reflect.DeepEqual(got, []string{"1", "2"}) {
				t.Errorf("%d rows: result %v, want [1 2]", n, got)
			}
		}
	})
	t.Run("maxResolvePairs", func(t *testing.T) {
		// Both dimensions select every row: the pair conjunct runs over
		// n × n key pairs.
		const pq = "SELECT f.id FROM fact f, dim d, fact h, dim e WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/p') AND " +
			"h.pid = e.id AND REGEXP_LIKE(e.path, '^/p') AND h.id = f.id AND LENGTH(d.path) = LENGTH(e.path) ORDER BY f.id"
		side := 1
		for side*side < maxResolvePairs {
			side++
		}
		if side*side != maxResolvePairs {
			t.Fatalf("maxResolvePairs = %d is not a square; pick other key-set sizes", maxResolvePairs)
		}
		at := sizedDimDB(t, side)
		if plan := explainOf(t, at, pq); !strings.Contains(plan, "key pairs of d, e>") {
			t.Errorf("a product of maxResolvePairs was not resolved:\n%s", plan)
		}
		over := sizedDimDB(t, side+1)
		plan := explainOf(t, over, pq)
		if strings.Contains(plan, "key pairs of") {
			t.Errorf("a product above maxResolvePairs was resolved:\n%s", plan)
		}
		// The unresolved conjunct still mentions both dimensions, which
		// keeps them — with their implied key tests.
		for _, w := range []string{"scan d:", "scan e:", "keys of d>", "keys of e>"} {
			if !strings.Contains(plan, w) {
				t.Errorf("plan above the cap lacks %q:\n%s", w, plan)
			}
		}
		for _, db := range []*DB{at, over} {
			if got := rowTexts(mustRun(t, db, pq)); !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
				t.Errorf("result %v, want [0 1 2]", got)
			}
		}
	})
	t.Run("maxResolveMemo", func(t *testing.T) {
		db := sizedDimDB(t, 16)
		st := db.Table("dim").state()
		size := st.resolved.len
		pattern := func(i int) string {
			return fmt.Sprintf("SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/p%d$')", i)
		}
		for i := 0; i < maxResolveMemo; i++ {
			mustRun(t, db, pattern(i))
		}
		if got := size(); got != maxResolveMemo {
			t.Fatalf("memo holds %d sets after %d distinct patterns, want all of them", got, maxResolveMemo)
		}
		// One more drops the memo and starts over; a stream of distinct
		// patterns never holds more than the bound.
		for i := maxResolveMemo; i < 3*maxResolveMemo+5; i++ {
			mustRun(t, db, pattern(i))
			if got := size(); got > maxResolveMemo {
				t.Fatalf("memo holds %d sets, bound is %d", got, maxResolveMemo)
			}
		}
		if got := size(); got != 5 {
			t.Errorf("memo holds %d sets after the stream, want 5 since the last flush", got)
		}
	})
}

// planKeySets collects the key-set pointers a compiled select's
// resolutions hold, by dimension alias.
func planKeySets(t testing.TB, db *DB, sql string) map[string]*keySet {
	t.Helper()
	st, err := sqlast.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*keySet{}
	for _, r := range cs.sel.resolved {
		out[r.alias] = r.keys
	}
	return out
}

// TestResolveMemoSharedAcrossTemplateTexts: the statements of one
// ad-hoc template differ in a literal the dimension's conjuncts do not
// hold, so every text after the first finds the template's key and
// pair sets on the dimension's state instead of matching again.
func TestResolveMemoSharedAcrossTemplateTexts(t *testing.T) {
	db := dimDB(t)
	template := func(id int) string {
		return fmt.Sprintf("SELECT f.id, h.id FROM fact f, dim d, fact h, dim e WHERE f.id = %d AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') AND "+
			"h.pid = e.id AND REGEXP_LIKE(SUBSTR(e.path, LENGTH(d.path) + 1), '^/[a-z]$')", id)
	}
	first := planKeySets(t, db, template(1))
	if first["d"] == nil || first["e"] == nil {
		t.Fatalf("template was not resolved: %v", first)
	}
	st := db.Table("dim").state()
	entries := st.resolved.len()
	if entries != 3 {
		t.Fatalf("memo holds %d sets after the first text, want 3 (d, e, their pair set)", entries)
	}
	misses := func() uint64 { _, m := db.PlanCacheStats(); return m }
	before := misses()
	for id := 2; id <= 8; id++ {
		got := planKeySets(t, db, template(id))
		if got["d"] != first["d"] || got["e"] != first["e"] {
			t.Fatalf("text %d resolved its own key sets; want the memoised ones", id)
		}
	}
	if got := misses() - before; got != 7 {
		t.Fatalf("%d of 7 distinct texts compiled; the test means to compile each", got)
	}
	if got := st.resolved.len(); got != entries {
		t.Errorf("memo grew to %d sets over the template's texts, want %d", got, entries)
	}
}

// TestResolveMemoConcurrentCompiles compiles distinct texts over the
// same dimension state from several goroutines (run under -race by
// `make race`): the memo is the only state they share.
func TestResolveMemoConcurrentCompiles(t *testing.T) {
	db := dimDB(t)
	patterns := []string{"^/a", "^/a/b", "^/x", "^/"}
	want := []string{"[1 2 3 6]", "[2 3 6]", "[4 5]", "[1 2 3 4 5 6]"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(patterns)
				// The comparison literal makes every text a plan-cache miss.
				q := fmt.Sprintf("SELECT f.id FROM fact f, dim d WHERE f.id < %d AND f.pid = d.id AND REGEXP_LIKE(d.path, '%s') ORDER BY f.id",
					100+g*1000+i, patterns[k])
				res, err := runSQL(db, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if got := fmt.Sprint(ids(res)); got != want[k] {
					t.Errorf("%s: ids %s, want %s", q, got, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPrefixRangeEstimate pins the Dewey window's estimate and its
// provenance: the window [x, x || lit] is guessed at
// defaultDeweyFanout rows — the ancestor probes' guess, by the
// counting identity in estimate.go — from the named default, while a
// two-sided range that is not a prefix window keeps the generic guess.
func TestPrefixRangeEstimate(t *testing.T) {
	db := bigDB(t)
	steps := func(sql string) []*joinStep {
		st, err := sqlast.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, cs, err := db.compile(nil, nil, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cs.sel.steps
	}
	rows := len(db.Table("item").Rows())

	window := steps("SELECT j.id FROM item i, item j WHERE i.id = 7 AND j.dewey_pos BETWEEN i.dewey_pos AND i.dewey_pos || X'FF'")[1]
	if r, ok := window.access.(*indexRange); !ok || !r.prefix {
		t.Fatalf("descendant window planned as %T", window.access)
	}
	if window.estAccess != defaultDeweyFanout || window.estSource != EstDefault {
		t.Errorf("window estimate = %v from %s, want %d from %s", window.estAccess, window.estSource, defaultDeweyFanout, EstDefault)
	}
	ancestors := steps("SELECT j.id FROM item i, item j WHERE i.id = 7 AND i.dewey_pos BETWEEN j.dewey_pos AND j.dewey_pos || X'FF'")[1]
	if _, ok := ancestors.access.(*indexPrefixes); !ok || ancestors.estAccess != window.estAccess {
		t.Errorf("ancestor probes (%T) estimate %v, want the window's %v", ancestors.access, ancestors.estAccess, window.estAccess)
	}

	// Another upper bound — even one that extends another column — is
	// no prefix window of the lower one.
	generic := steps("SELECT j.id FROM item i, item j WHERE i.id = 7 AND j.dewey_pos BETWEEN i.dewey_pos AND X'0F'")[1]
	if r, ok := generic.access.(*indexRange); !ok || r.prefix {
		t.Fatalf("generic range planned as %T", generic.access)
	}
	if want := float64(rows/genericRangeDivisor + 1); generic.estAccess != want || generic.estSource != EstDefault {
		t.Errorf("generic range estimate = %v from %s, want %v from %s", generic.estAccess, generic.estSource, want, EstDefault)
	}

	// A relation smaller than the fanout cannot yield more than it has.
	small := fixtureDB(t)
	st, _ := sqlast.Parse("SELECT d.id FROM C c, D d WHERE c.id = 3 AND d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF'")
	_, cs, err := small.compile(nil, nil, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.sel.steps[1].estAccess; got != 1 {
		t.Errorf("window over a one-row relation estimated at %v rows, want 1", got)
	}
}

// TestFilterOrderByCostClass: a step's residual conjuncts run set
// tests first, then comparisons, then function calls, then subplans,
// stable within a class and whatever the WHERE order — so the subplan
// is opened for the rows the cheaper filters keep, not for all.
func TestFilterOrderByCostClass(t *testing.T) {
	db := bigDB(t)
	const q = "SELECT i.id FROM item i, paths p WHERE " +
		"EXISTS (SELECT NULL FROM item j WHERE j.par = i.id) AND REGEXP_LIKE(i.text, '^1') AND i.val < 50 AND " +
		"i.path_id = p.id AND REGEXP_LIKE(p.path, '^/a/b') AND i.score >= 0 ORDER BY i.id"
	plan := explainOf(t, db, q)
	const want = "filter i: i.path_id IN <3 keys of p> AND i.val < 50 AND i.score >= 0 AND REGEXP_LIKE(i.text, '^1') AND EXISTS ("
	if !strings.Contains(plan, want) {
		t.Errorf("filters not in cost-class order; want %q in:\n%s", want, plan)
	}
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	reports, res, err := db.analyzeReport(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var scanned, subplanLoops int64
	for _, r := range reports {
		switch {
		case strings.HasPrefix(r.Label, "scan i:"):
			scanned = r.RowsOut
		case r.Kind == "subplan":
			subplanLoops = r.Loops
		}
	}
	if subplanLoops == 0 || subplanLoops*4 > scanned {
		t.Errorf("subplan opened %d times for %d scanned rows; the cheaper filters should have cut that to under a quarter", subplanLoops, scanned)
	}
	// The same statement with the filters written cheapest first
	// returns the same rows.
	const reordered = "SELECT i.id FROM item i, paths p WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/a/b') AND i.val < 50 AND i.score >= 0 AND " +
		"REGEXP_LIKE(i.text, '^1') AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id) ORDER BY i.id"
	if other := mustRun(t, db, reordered); !equalResults(res, other) {
		t.Errorf("WHERE order changed the result: %d vs %d rows", len(res.Rows), len(other.Rows))
	}
}

// TestResolvedSetsExtend appends random paths to a dimension a few at a
// time and, after every append, plans statements that resolve key sets
// and a pair set on it. Each set the new state extends from the one its
// predecessor resolved (tableState.carried) must equal the set a store
// holding the same rows, committed at once, resolves from scratch. An
// append that adds no key to any set leaves every set the predecessor's
// own.
func TestResolvedSetsExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	stmts := []string{
		"SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a')",
		"SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '/b$')",
		"SELECT f.id, h.id FROM fact f, dim d, fact h, dim e WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') AND " +
			"h.pid = e.id AND REGEXP_LIKE(e.path, '^/[ab]') AND REGEXP_LIKE(SUBSTR(e.path, LENGTH(d.path) + 1), '^/[a-z]$')",
	}
	open := func(dims, facts [][]Value) *DB {
		db := NewDB()
		dim, err := db.CreateTable("dim", Column{"id", TInt}, Column{"path", TText})
		if err != nil {
			t.Fatal(err)
		}
		fact, err := db.CreateTable("fact", Column{"id", TInt}, Column{"pid", TInt})
		if err != nil {
			t.Fatal(err)
		}
		mustIndex(t, dim, "dim_pk", "id")
		mustIndex(t, fact, "fact_pid", "pid")
		for tb, rows := range map[*Table][][]Value{dim: dims, fact: facts} {
			if len(rows) > 0 {
				if _, err := tb.InsertBatch(rows); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}
	// sets plans every statement and returns its key sets and pair sets.
	sets := func(db *DB) (keys []*keySet, pairs []*pairSet) {
		for _, q := range stmts {
			st, err := sqlast.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			_, cs, err := db.compile(nil, nil, st, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range cs.sel.resolved {
				keys = append(keys, r.keys)
			}
			for _, pr := range cs.sel.pairs {
				pairs = append(pairs, pr.pairs)
			}
		}
		if len(keys) != 4 || len(pairs) != 1 {
			t.Fatalf("statements resolved %d key sets and %d pair sets, want 4 and 1", len(keys), len(pairs))
		}
		return keys, pairs
	}
	seen := map[string]bool{}
	var dims, facts [][]Value
	db := open(nil, nil)
	prevKeys, prevPairs := sets(db)
	for round := 0; round < 16; round++ {
		// Every fourth round appends only paths under /z, which no
		// conjunct selects.
		quiet := round%4 == 3
		var added [][]Value
		for len(added) == 0 || rng.Intn(3) > 0 {
			p, steps := "", "abcx"
			if quiet {
				p, steps = "/z", "cx"
			}
			for d := 1 + rng.Intn(4); d > 0; d-- {
				p += "/" + string(steps[rng.Intn(len(steps))])
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			id := int64(len(dims) + len(added) + 1)
			added = append(added, []Value{NewInt(id), NewText(p)})
			facts = append(facts, []Value{NewInt(int64(len(facts))), NewInt(id)})
		}
		dims = append(dims, added...)
		if _, err := db.Table("dim").InsertBatch(added); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Table("fact").InsertBatch(facts[len(facts)-len(added):]); err != nil {
			t.Fatal(err)
		}
		if len(db.Table("dim").state().carried) == 0 {
			t.Fatalf("round %d: the new dimension state carries no resolved set", round)
		}
		keys, pairs := sets(db)
		wantKeys, wantPairs := sets(open(dims, facts))
		for i, ks := range keys {
			if w := wantKeys[i]; !slices.Equal(ks.keys, w.keys) || !slices.Equal(ks.rows, w.rows) || !reflect.DeepEqual(ks.has, w.has) {
				t.Fatalf("round %d: key set %d extended to %v (rows %v), from scratch %v (rows %v)", round, i, ks.keys, ks.rows, w.keys, w.rows)
			}
			if quiet && ks != prevKeys[i] {
				t.Errorf("round %d: key set %d was rebuilt although no appended path is in it", round, i)
			}
		}
		for i, ps := range pairs {
			if w := wantPairs[i]; !reflect.DeepEqual(ps.pairs, w.pairs) || !reflect.DeepEqual(ps.has, w.has) {
				t.Fatalf("round %d: pair set %d extended to %v, from scratch %v", round, i, ps.pairs, w.pairs)
			}
			if quiet && ps != prevPairs[i] {
				t.Errorf("round %d: pair set %d was rebuilt although no appended path is in it", round, i)
			}
		}
		prevKeys, prevPairs = keys, pairs
	}
	if n := len(prevPairs[0].pairs); n == 0 {
		t.Errorf("the pair set never held a pair: the statements mean to resolve some")
	}
}
