package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// subplanControl returns the statement with every positive EXISTS
// disjoined with a false constant: the same rows, and under an OR no
// EXISTS is unnested (unnest.go), so the control runs every one of them
// as the correlated subplan it was before the rewrite existed.
func subplanControl(t testing.TB, sql string) sqlast.Statement {
	t.Helper()
	st, err := sqlast.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	never := &sqlast.Binary{Op: sqlast.OpEq, L: sqlast.Int(1), R: sqlast.Int(0)}
	var wrap func(e sqlast.Expr) sqlast.Expr
	wrapSel := func(s *sqlast.Select) *sqlast.Select {
		out := *s
		if s.Where != nil {
			out.Where = wrap(s.Where)
		}
		return &out
	}
	wrap = func(e sqlast.Expr) sqlast.Expr {
		switch x := e.(type) {
		case *sqlast.Binary:
			return &sqlast.Binary{Op: x.Op, L: wrap(x.L), R: wrap(x.R)}
		case *sqlast.Not:
			return &sqlast.Not{X: wrap(x.X)}
		case *sqlast.Exists:
			inner := &sqlast.Exists{Select: wrapSel(x.Select), Negate: x.Negate}
			if x.Negate {
				return inner
			}
			return &sqlast.Binary{Op: sqlast.OpOr, L: inner, R: never}
		}
		return e
	}
	return wrapSel(st.(*sqlast.Select))
}

// unnestModes are the execution modes every unnested statement must
// return the control's rows under, order included.
var unnestModes = []execMode{{workers: 1}, {workers: 1, batch: 1}, {workers: 1, batch: 7}, {workers: 4}, {workers: 4, batch: 3}}

// TestUnnestFires covers every way the rewrite fires. Each statement
// must plan without a subplan for the EXISTS it unnests, show what the
// case is about in its EXPLAIN text, and return the rows of its control
// — the same statement with the EXISTS kept as subplans — in every
// execution mode, on a compile and on a plan-cache hit.
func TestUnnestFires(t *testing.T) {
	db := bigDB(t)
	cases := []struct {
		name, sql string
		has       []string // substrings of the plan
		lacks     []string
	}{
		{name: "existential alias drives, distinct removes the duplicates",
			sql: "SELECT DISTINCT p.id, p.dewey_pos FROM item c, item p WHERE EXISTS " +
				"(SELECT NULL FROM item b WHERE b.par = c.id AND b.text = '77') AND p.par = c.id ORDER BY p.dewey_pos",
			has:   []string{"scan b: hash join, existential", "distinct\n", "sort: p.dewey_pos"},
			lacks: []string{"subplan", "first match"}},
		{name: "trailing run of one alias under the duplicate-free proof",
			sql: "SELECT DISTINCT i.id FROM item i WHERE i.val > 50 AND EXISTS " +
				"(SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.id",
			has:   []string{"scan j: index lookup item_par, existential", "(distinct by i.id, first match)"},
			lacks: []string{"subplan", "distinct\n", "sort:"}},
		{name: "trailing run of one alias without the proof",
			sql: "SELECT DISTINCT i.text FROM item i WHERE i.val = 7 AND EXISTS " +
				"(SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.text",
			has:   []string{"scan j: index lookup item_par, existential", "project: i.text (first match from j)", "distinct\n"},
			lacks: []string{"subplan"}},
		{name: "trailing run of two aliases",
			sql: "SELECT DISTINCT i.text FROM item i WHERE i.val < 30 AND EXISTS " +
				"(SELECT NULL FROM item a, item b WHERE a.par = i.id AND b.par = a.id) ORDER BY i.text",
			has:   []string{"scan a: index lookup item_par, existential", "scan b: index lookup item_par, existential", "(first match from a)"},
			lacks: []string{"subplan"}},
		{name: "existential alias a later result step refers to: no first match",
			sql: "SELECT DISTINCT k.id FROM item i, item k WHERE i.val = 3 AND EXISTS " +
				"(SELECT NULL FROM item j WHERE j.par = i.id AND k.par = j.id) ORDER BY k.id",
			has:   []string{"scan j: index lookup item_par, existential", "scan k: index lookup item_par est"},
			lacks: []string{"subplan", "first match"}},
		{name: "nested EXISTS flattened twice",
			sql: "SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND EXISTS " +
				"(SELECT NULL FROM cat c WHERE c.id = j.val AND c.name = 'cat-3')) ORDER BY i.id",
			has:   []string{"scan j: ", "scan c: ", ", existential"},
			lacks: []string{"subplan"}},
		{name: "paths alias inside the sub-select resolved to a key set",
			sql: "SELECT DISTINCT i.id FROM item i WHERE i.val < 40 AND EXISTS (SELECT NULL FROM item j, paths p " +
				"WHERE j.par = i.id AND j.path_id = p.id AND REGEXP_LIKE(p.path, '^/x')) ORDER BY i.id",
			has:   []string{"j.path_id IN <3 keys of p>", "scan j: ", ", existential"},
			lacks: []string{"subplan", "scan p:"}},
		{name: "alias declared by two sub-selects renamed",
			sql: "SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val < 20) " +
				"AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 80 AND NOT EXISTS " +
				"(SELECT NULL FROM cat c WHERE c.id = j.val)) ORDER BY i.id",
			has:   []string{"scan j_2: ", "scan j_3: ", "j_2.val < 20", "j_3.val > 80", "not-exists subplan"},
			lacks: []string{"  exists subplan"}},
		{name: "unqualified names resolve as they did before the merge",
			sql: "SELECT DISTINCT id FROM item i WHERE val > 60 AND EXISTS " +
				"(SELECT NULL FROM item j WHERE par = i.id AND val < 40) ORDER BY id",
			has:   []string{"scan j: index lookup item_par, existential", "filter j: j.par = i.id AND j.val < 40", "filter i: i.val > 60"},
			lacks: []string{"subplan"}},
		{name: "sub-select that projects a qualified column",
			sql: "SELECT DISTINCT i.id FROM item i WHERE i.val = 7 AND EXISTS " +
				"(SELECT j.id, i.val FROM item j WHERE j.par = i.id) ORDER BY i.id",
			has:   []string{", existential"},
			lacks: []string{"subplan"}},
		{name: "correlated subplan waits for the existential run",
			sql: "SELECT DISTINCT i.id FROM item i WHERE i.val = 7 AND (EXISTS (SELECT NULL FROM cat c WHERE c.id = i.path_id) OR i.text = '1') " +
				"AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val < 60) ORDER BY i.id",
			has: []string{"filter i: i.val = 7 est", "filter j: j.par = i.id AND j.val < 60 AND (EXISTS (", "exists subplan"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := sqlast.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(db, subplanControl(t, tc.sql))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the statement selects nothing")
			}
			// Twice: a compile, then a plan-cache hit.
			for round := 0; round < 2; round++ {
				plan, err := db.Explain(st)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range tc.has {
					if !strings.Contains(plan, s) {
						t.Errorf("round %d: plan lacks %q:\n%s", round, s, plan)
					}
				}
				for _, s := range tc.lacks {
					if strings.Contains(plan, s) {
						t.Errorf("round %d: plan holds %q:\n%s", round, s, plan)
					}
				}
				for _, m := range unnestModes {
					got, err := m.run(db, st)
					if err != nil {
						t.Fatal(err)
					}
					if !equalResults(got, want) {
						t.Errorf("round %d %+v: %d rows differ from the control's %d (order included)", round, m, len(got.Rows), len(want.Rows))
					}
				}
			}
		})
	}
}

// TestUnnestStopsAtFirstFullMatch reads the first-match run off the
// counters: with two trailing existential aliases the projection takes
// in one row per binding of the step before the run that has a full
// match — the count the control's subplan filter lets through — however
// many full matches the binding has, at every batch size and under
// morsels.
func TestUnnestStopsAtFirstFullMatch(t *testing.T) {
	db := bigDB(t)
	sql := "SELECT DISTINCT i.text FROM item i WHERE i.val < 30 AND EXISTS " +
		"(SELECT NULL FROM item a, item b WHERE a.par = i.id AND b.par = a.id) ORDER BY i.text"
	matched, err := runSQL(db, "SELECT COUNT(*) FROM item i WHERE i.val < 30 AND EXISTS "+
		"(SELECT NULL FROM item a, item b WHERE a.par = i.id AND b.par = a.id)")
	if err != nil {
		t.Fatal(err)
	}
	all, err := runSQL(db, "SELECT COUNT(*) FROM item i, item a, item b WHERE i.val < 30 AND a.par = i.id AND b.par = a.id")
	if err != nil {
		t.Fatal(err)
	}
	if matched.Rows[0][0].I >= all.Rows[0][0].I {
		t.Fatalf("fixture: %d bindings match, %d full matches: nothing for first match to skip", matched.Rows[0][0].I, all.Rows[0][0].I)
	}
	st := sqlast.MustParse(sql)
	for _, m := range unnestModes {
		db.forceWorkers = m.workers
		reports, _, err := db.analyzeReport(st, m.ExecOptions)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if r.Kind == "project" && r.RowsOut != matched.Rows[0][0].I {
				t.Errorf("%+v: the projection emitted %d rows, want one per matching binding: %d (of %d full matches)",
					m, r.RowsOut, matched.Rows[0][0].I, all.Rows[0][0].I)
			}
		}
	}
}

// TestSubplanConjunctWaitsOnlyForNarrowRun: a NOT EXISTS bound by the
// driving step waits for a trailing first-match run of about one
// candidate a binding — a driving row the run rejects then never opens
// the subplan — but not for a run of ten: the subplan is false for every
// driving row here, so behind that run it would be evaluated for each of
// the ten candidates, where on the driving step it runs once a row.
func TestSubplanConjunctWaitsOnlyForNarrowRun(t *testing.T) {
	db := NewDB()
	mk := func(name string, cols ...Column) *Table {
		tb, err := db.CreateTable(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	drv := mk("drv", Column{"id", TInt})
	many := mk("many", Column{"par", TInt})
	one := mk("one", Column{"par", TInt})
	blk := mk("blk", Column{"par", TInt})
	const rows = 200
	for i := int64(0); i < rows; i++ {
		drv.MustInsert(NewInt(i))
		blk.MustInsert(NewInt(i))
		for k := 0; k < 10; k++ {
			many.MustInsert(NewInt(i))
		}
		if i%2 == 0 {
			one.MustInsert(NewInt(i))
		}
	}
	for _, ix := range []struct {
		t    *Table
		name string
		col  string
	}{{drv, "drv_pk", "id"}, {many, "many_par", "par"}, {one, "one_par", "par"}, {blk, "blk_par", "par"}} {
		if _, err := ix.t.CreateIndex(ix.name, ix.col); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		run         string
		filterOn    string
		subplanRuns int64
	}{
		{"many", "d", rows},
		{"one", "r", rows / 2},
	} {
		st := sqlast.MustParse("SELECT DISTINCT d.id FROM drv d WHERE EXISTS (SELECT NULL FROM " + tc.run + " r WHERE r.par = d.id) AND " +
			"NOT EXISTS (SELECT NULL FROM blk b WHERE b.par = d.id) ORDER BY d.id")
		for _, m := range unnestModes {
			db.forceWorkers = m.workers
			reports, res, err := db.analyzeReport(st, m.ExecOptions)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 {
				t.Fatalf("run over %s, %+v: %d rows, want none", tc.run, m, len(res.Rows))
			}
			if order := strings.Join(scanOrder(reports), ">"); order != "d>r>b" && order != "d>b>r" {
				t.Fatalf("run over %s: join order %s, want d driving and r trailing", tc.run, order)
			}
			for i, r := range reports {
				if r.Kind == "filter" && strings.Contains(r.Label, "NOT EXISTS") && !strings.HasPrefix(r.Label, "filter "+tc.filterOn+":") {
					t.Errorf("run over %s: the NOT EXISTS sits on %q, want it on %s", tc.run, r.Label, tc.filterOn)
				}
				if r.Kind == "scan" && strings.HasPrefix(r.Label, "scan b:") && r.Loops != tc.subplanRuns {
					t.Errorf("run over %s, %+v: the subplan ran %d times, want %d (%d driving rows)\n%+v", tc.run, m, r.Loops, tc.subplanRuns, rows, reports[i])
				}
			}
		}
	}
}

// TestUnnestKeepsSubplan covers every way the rewrite must not fire:
// the plan keeps the subplan (no step is existential), and the rows are
// the ones a nested-loop evaluation of the statement as written gives.
func TestUnnestKeepsSubplan(t *testing.T) {
	db := bigDB(t)
	item := db.Table("item").Rows()
	const id, par, text, val = 0, 1, 4, 5
	// kids[p] lists the rows whose par is p.
	kids := map[int64][][]Value{}
	for _, r := range item {
		kids[r[par].I] = append(kids[r[par].I], r)
	}
	hasKid := func(r []Value, ok func(k []Value) bool) bool {
		for _, k := range kids[r[id].I] {
			if ok(k) {
				return true
			}
		}
		return false
	}
	big := func(k []Value) bool { return k[val].Kind == KInt && k[val].I > 50 }
	// collect evaluates 'SELECT [DISTINCT] i.text FROM item i WHERE keep
	// ORDER BY i.text' by hand.
	collect := func(distinct bool, keep func(r []Value) bool) []string {
		var out []string
		seen := map[string]bool{}
		for _, r := range item {
			if !keep(r) || (distinct && seen[r[text].S]) {
				continue
			}
			seen[r[text].S] = true
			out = append(out, r[text].S)
		}
		sortStrings(out)
		return out
	}
	count := func(keep func(r []Value) bool) []string {
		n := int64(0)
		for _, r := range item {
			if keep(r) {
				n++
			}
		}
		return []string{NewInt(n).String()}
	}
	exists := sqlast.MustParse("SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50").(*sqlast.Select)
	withBody := func(edit func(body *sqlast.Select)) sqlast.Statement {
		body := *exists
		edit(&body)
		st := sqlast.MustParse("SELECT DISTINCT i.text FROM item i WHERE i.val < 20 ORDER BY i.text").(*sqlast.Select)
		st.Where = &sqlast.Binary{Op: sqlast.OpAnd, L: st.Where, R: &sqlast.Exists{Select: &body}}
		return st
	}
	small := func(r []Value) bool { return r[val].Kind == KInt && r[val].I < 20 }
	cases := []struct {
		name string
		st   sqlast.Statement
		want []string
		has  string
	}{
		{name: "NOT EXISTS",
			st:   sqlast.MustParse("SELECT DISTINCT i.text FROM item i WHERE i.val < 20 AND NOT EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.text"),
			want: collect(true, func(r []Value) bool { return small(r) && !hasKid(r, big) }),
			has:  "not-exists subplan"},
		{name: "EXISTS under OR",
			st:   sqlast.MustParse("SELECT DISTINCT i.text FROM item i WHERE i.val < 5 OR EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.text"),
			want: collect(true, func(r []Value) bool { return (r[val].Kind == KInt && r[val].I < 5) || hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "EXISTS under NOT",
			st:   sqlast.MustParse("SELECT DISTINCT i.text FROM item i WHERE i.val < 20 AND NOT (i.val > 10 AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50)) ORDER BY i.text"),
			want: collect(true, func(r []Value) bool { return small(r) && !(r[val].I > 10 && hasKid(r, big)) }),
			has:  "exists subplan"},
		{name: "select without DISTINCT: duplicates survive",
			st:   sqlast.MustParse("SELECT i.text FROM item i WHERE i.val < 20 AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.text"),
			want: collect(false, func(r []Value) bool { return small(r) && hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "COUNT(*)",
			st:   sqlast.MustParse("SELECT COUNT(*) FROM item i WHERE i.val < 20 AND EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50)"),
			want: count(func(r []Value) bool { return small(r) && hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "sub-select with a DISTINCT of its own",
			st:   withBody(func(b *sqlast.Select) { b.Distinct = true }),
			want: collect(true, func(r []Value) bool { return small(r) && hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "sub-select with an ORDER BY of its own",
			st:   withBody(func(b *sqlast.Select) { b.OrderBy = []sqlast.OrderKey{{Expr: sqlast.C("j", "id")}} }),
			want: collect(true, func(r []Value) bool { return small(r) && hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "sub-select that projects an expression",
			st: withBody(func(b *sqlast.Select) {
				b.Cols = []sqlast.SelectCol{{Expr: &sqlast.Binary{Op: sqlast.OpAdd, L: sqlast.C("j", "val"), R: sqlast.Int(1)}}}
			}),
			want: collect(true, func(r []Value) bool { return small(r) && hasKid(r, big) }),
			has:  "exists subplan"},
		{name: "sub-select without a FROM",
			st:   withBody(func(b *sqlast.Select) { b.From, b.Where = nil, nil }),
			want: collect(true, small),
			has:  "exists subplan"},
		{name: "EXISTS correlated to the grand-parent, inside a subplan",
			st: sqlast.MustParse("SELECT DISTINCT i.text FROM item i WHERE i.val < 20 AND NOT EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND " +
				"EXISTS (SELECT NULL FROM item k WHERE k.par = j.id AND k.val = i.val)) ORDER BY i.text"),
			want: collect(true, func(r []Value) bool {
				return small(r) && !hasKid(r, func(j []Value) bool {
					return hasKid(j, func(k []Value) bool { return k[val].Kind == KInt && k[val].I == r[val].I })
				})
			}),
			has: "    exists subplan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := db.Explain(tc.st)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, tc.has) || strings.Contains(plan, "existential") {
				t.Errorf("plan should keep its %q and bind no existential alias:\n%s", tc.has, plan)
			}
			if len(tc.want) == 0 {
				t.Fatal("the statement selects nothing")
			}
			for _, m := range unnestModes {
				got, err := m.run(db, tc.st)
				if err != nil {
					t.Fatal(err)
				}
				var rows []string
				for _, r := range got.Rows {
					rows = append(rows, r[0].String())
				}
				if strings.Join(rows, "\x00") != strings.Join(tc.want, "\x00") {
					t.Errorf("%+v: %d rows, the statement as written selects %d", m, len(rows), len(tc.want))
				}
			}
		})
	}
}

// TestUnnestLeavesErrorsAlone: a statement that was an error stays one,
// with the message the subplan path gives it.
func TestUnnestLeavesErrorsAlone(t *testing.T) {
	db := bigDB(t)
	for sql, want := range map[string]string{
		// The sub-select's alias shadows the select's.
		"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item i WHERE i.val = 3)": "shadows an enclosing table",
		// Nothing the select projects or orders by may read an alias of the sub-select.
		"SELECT DISTINCT j.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id)":               `unknown table "j"`,
		"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id) ORDER BY j.id": `unknown table "j"`,
		// One sub-select may not read the other's alias.
		"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id) AND EXISTS (SELECT NULL FROM item k WHERE k.par = j.id)": `unknown table "j"`,
		"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM nosuch j WHERE j.par = i.id)":                                                       `unknown table "nosuch"`,
		"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT j.nosuch FROM item j WHERE j.par = i.id)":                                                     `no column "nosuch"`,
	} {
		_, err := runSQL(db, sql)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s:\nerr = %v, want %q", sql, err, want)
		}
	}
}

// TestUnnestUnderHeuristicPlanning: the rewrite reads no data, so the
// planner that may not look at the data performs it too, and returns the
// same rows — with the existential aliases behind the select's own, the
// order the nesting had: it has no statistics to call a predicate
// selective by.
func TestUnnestUnderHeuristicPlanning(t *testing.T) {
	db, heuristic := bigDB(t), bigDB(t)
	ForceHeuristic(heuristic, true)
	for _, sql := range unnestQueries {
		st := sqlast.MustParse(sql)
		plan, err := heuristic.Explain(st)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "existential") {
			t.Errorf("%s:\nheuristic-only plan binds no existential alias:\n%s", sql, plan)
		}
		if first := strings.SplitN(plan, "\n", 2)[0]; strings.Contains(first, "existential") {
			t.Errorf("%s:\nheuristic-only plan drives from an existential alias:\n%s", sql, plan)
		}
		want, err := run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(heuristic, st)
		if err != nil {
			t.Fatal(err)
		}
		// Compared as sets: the two planners may order the joins
		// differently, and the fixture's dewey_pos values tie.
		if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s:\nheuristic-only planning returns %d rows, synopsis planning %d, or other ones", sql, len(g), len(w))
		}
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
