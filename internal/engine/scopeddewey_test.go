package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// deweyDB is the scoped-run fixture: a four-path dimension (/p1 … /p4)
// over a fact relation holding a forest by Dewey position — 40 roots,
// three children each, two grandchildren under each child and, under
// each first grandchild of every fifth root, a chain 24 levels deep
// whose positions run to 81 bytes: 976 rows. A node's path is its
// depth, /p4 from depth four on. shuffled inserts the rows out of Dewey
// order; nulls stores every ninth grandchild's position as NULL.
func deweyDB(t testing.TB, shuffled, nulls bool) *DB {
	t.Helper()
	db := NewDB()
	dim, err := db.CreateTable("dim", Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		dim.MustInsert(NewInt(int64(i)), NewText(fmt.Sprintf("/p%d", i)))
	}
	fact, err := db.CreateTable("fact", Column{"id", TInt}, Column{"pid", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	var add func(pos []byte, depth int)
	add = func(pos []byte, depth int) {
		v := NewBytes(pos)
		if nulls && depth == 3 && len(rows)%9 == 0 {
			v = Null
		}
		rows = append(rows, []Value{NewInt(int64(len(rows))), NewInt(int64(min(depth, 4))), v})
		kids := 0
		switch {
		case depth == 1:
			kids = 3
		case depth == 2:
			kids = 2
		case depth < 27 && pos[0]%5 == 0 && pos[len(pos)-1] == 1:
			kids = 1
		}
		for k := 1; k <= kids; k++ {
			add(append(append([]byte(nil), pos...), 0, 0, byte(k)), depth+1)
		}
	}
	for r := 1; r <= 40; r++ {
		add([]byte{byte(r), 0, 0}, 1)
	}
	if shuffled {
		// A fixed permutation: row i moves to 7i mod n (n is prime to 7).
		out := make([][]Value, len(rows))
		for i, row := range rows {
			out[i*7%len(rows)] = row
		}
		rows = out
	}
	if _, err := fact.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		t    *Table
		n    string
		cols []string
	}{{dim, "dim_pk", []string{"id"}}, {fact, "fact_dp", []string{"dewey_pos", "pid"}}} {
		if _, err := ix.t.CreateIndex(ix.n, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Statements over deweyDB: an ancestor step (a grandchild's ancestors
// among the nodes of three paths), a descendant window (a root's
// descendants on two), a Dewey step over the deep chains and a window
// under first match.
const (
	deweyAncestorSQL = "SELECT DISTINCT a.id, a.dewey_pos FROM fact d, dim dd, fact a, dim ad WHERE d.pid = dd.id AND REGEXP_LIKE(dd.path, '^/p3$') AND " +
		"a.pid = ad.id AND REGEXP_LIKE(ad.path, '^/p[124]$') AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY a.dewey_pos"
	deweyWindowSQL = "SELECT DISTINCT d.id, d.dewey_pos FROM fact a, dim ad, fact d, dim dd WHERE a.pid = ad.id AND REGEXP_LIKE(ad.path, '^/p1$') AND " +
		"d.pid = dd.id AND REGEXP_LIKE(dd.path, '^/p[34]$') AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY d.dewey_pos"
	deweyDeepSQL = "SELECT DISTINCT a.id, a.dewey_pos FROM fact d, dim dd, fact a, dim ad WHERE d.pid = dd.id AND REGEXP_LIKE(dd.path, '^/p4$') AND " +
		"a.pid = ad.id AND REGEXP_LIKE(ad.path, '^/p4$') AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' AND a.id <> d.id ORDER BY a.dewey_pos"
	deweyFirstMatchSQL = "SELECT DISTINCT a.id, a.dewey_pos FROM fact a, dim ad WHERE a.pid = ad.id AND REGEXP_LIKE(ad.path, '^/p2$') AND " +
		"EXISTS (SELECT NULL FROM fact d, dim dd WHERE d.pid = dd.id AND REGEXP_LIKE(dd.path, '^/p[34]$') AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF') ORDER BY a.dewey_pos"
)

// runs returns the scoped runs the table's current state holds.
func runs(db *DB, table string) map[scopedKey]*deweyRun {
	st := db.Table(table).state()
	st.hashMu.Lock()
	defer st.hashMu.Unlock()
	out := map[scopedKey]*deweyRun{}
	for k, r := range st.scopedRun {
		out[k] = r
	}
	return out
}

// checkRun verifies a scoped run against the rows it was built over:
// it holds exactly the admitted rows with a position, ordered by it
// (equal ones by id), and lists exactly their lengths.
func checkRun(t *testing.T, db *DB, table string, k scopedKey, r *deweyRun) {
	t.Helper()
	rows := db.Table(table).Rows()
	want := map[int64]bool{}
	lens := map[int]bool{}
	for id, row := range rows {
		if v := row[k.col]; v.Kind == KBytes && k.in.admits(row) {
			want[int64(id)] = true
			lens[len(v.B)] = true
		}
	}
	if len(r.ids) != len(want) {
		t.Errorf("run holds %d rows, the key set admits %d with a position", len(r.ids), len(want))
	}
	for i, id := range r.ids {
		if !want[id] {
			t.Errorf("run holds row %d (%v), which it should not", id, rows[id])
		}
		if i > 0 {
			prev := r.ids[i-1]
			if c := bytes.Compare(rows[prev][k.col].B, rows[id][k.col].B); c > 0 || c == 0 && prev > id {
				t.Errorf("run lists row %d before row %d: out of order", prev, id)
			}
		}
	}
	if len(r.lens) != len(lens) {
		t.Errorf("run lists lengths %v, the rows hold %d distinct ones", r.lens, len(lens))
	}
	for i, n := range r.lens {
		if !lens[n] || i > 0 && r.lens[i-1] >= n {
			t.Errorf("run lists lengths %v: not the rows' lengths, ascending", r.lens)
		}
	}
}

// TestScopedDeweyStep runs the scoped run's cases on deweyDB. Every
// case's rows must be those of the same statement on a copy planned
// heuristic-only — which resolves no key set, so runs every Dewey step
// over the index — and its plan and the runs it leaves behind what the
// case says.
func TestScopedDeweyStep(t *testing.T) {
	cases := []struct {
		name            string
		shuffled, nulls bool
		sql             string
		plan, notIn     []string
		built           bool // whether the statement leaves a scoped run
		long            bool // that the run holds a position of 64 bytes or more
	}{
		{
			name:  "ancestor step over a key set's run",
			sql:   deweyAncestorSQL,
			plan:  []string{"index prefix lookups fact_dp over pid IN <3 keys of ad> est"},
			built: true,
		},
		{
			name:  "descendant window over a key set's run",
			sql:   deweyWindowSQL,
			plan:  []string{"index range scan (two-sided) fact_dp over pid IN <2 keys of dd> est"},
			built: true,
		},
		{
			name:  "key set covering every row",
			sql:   strings.ReplaceAll(strings.ReplaceAll(deweyAncestorSQL, "'^/p3$'", "'^/'"), "'^/p[124]$'", "'^/'"),
			plan:  []string{"index prefix lookups fact_dp est", "a.pid IN <4 keys of ad>"},
			notIn: []string{" over "},
		},
		{
			name: "empty key set",
			sql:  strings.ReplaceAll(deweyAncestorSQL, "'^/p3$'", "'^/nowhere'"),
			plan: []string{"key-set probes hash <0 keys of dd>"},
		},
		{
			name:  "NULL Dewey values",
			nulls: true,
			sql:   deweyWindowSQL,
			plan:  []string{"index range scan (two-sided) fact_dp over pid IN <2 keys of dd> est"},
			built: true,
		},
		{
			name:     "non-ascending Dewey column",
			shuffled: true,
			sql:      deweyAncestorSQL,
			plan:     []string{"index prefix lookups fact_dp over pid IN <3 keys of ad> est"},
			built:    true,
		},
		{
			name:  "values of 64 bytes or more",
			sql:   deweyDeepSQL,
			plan:  []string{"fact_dp over pid IN <1 keys of "},
			built: true,
			long:  true,
		},
		{
			name:  "first match through a scoped window",
			sql:   deweyFirstMatchSQL,
			plan:  []string{"scan d: index range scan (two-sided) fact_dp over pid IN <2 keys of dd>, existential est", "(first match from d)"},
			built: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, oracle := deweyDB(t, tc.shuffled, tc.nulls), deweyDB(t, tc.shuffled, tc.nulls)
			oracle.SetHeuristicOnlyPlanning(true)
			if asc := db.Table("fact").state().ascending[2]; asc == (tc.shuffled || tc.nulls) {
				t.Fatalf("fixture's dewey_pos ascending: %v", asc)
			}
			got, want := mustRun(t, db, tc.sql), mustRun(t, oracle, tc.sql)
			if !equalResults(got, want) {
				t.Errorf("rows %v, want %v", rowTexts(got), rowTexts(want))
			}
			if tc.built && len(got.Rows) == 0 {
				t.Errorf("no rows: the case means to join some")
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
			rs := runs(db, "fact")
			if !tc.built {
				if len(rs) != 0 {
					t.Errorf("%d scoped runs, want none", len(rs))
				}
				return
			}
			if len(rs) != 1 {
				t.Fatalf("%d scoped runs, want one", len(rs))
			}
			for k, r := range rs {
				checkRun(t, db, "fact", k, r)
				if longest := r.lens[len(r.lens)-1]; tc.long && longest < 64 {
					t.Errorf("longest position in the run %d bytes, want 64 or more", longest)
				}
			}
		})
	}
}

// TestScopedRunMemo: scoped runs are memoised on the fact state by
// column and key set, the key set by identity, and at maxResolveMemo
// runs the memo is flushed whole.
func TestScopedRunMemo(t *testing.T) {
	db := deweyDB(t, false, false)
	st := db.Table("fact").state()
	set := func() *keySet { return &keySet{keys: []int64{2}, has: map[int64]struct{}{2: {}}} }
	size := func() int {
		st.hashMu.Lock()
		defer st.hashMu.Unlock()
		return len(st.scopedRun)
	}
	build := func(ks *keySet) (*deweyRun, bool) {
		t.Helper()
		r, built, charged, err := st.runFor(2, hashScope{col: 1, keys: ks}, newAccountant(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if built != (charged > 0) || built && charged != 8*int64(len(r.ids)) {
			t.Fatalf("built %v a run of %d rows but charged %d bytes", built, len(r.ids), charged)
		}
		return r, built
	}
	first := set()
	r, built := build(first)
	if !built || len(r.ids) != 120 {
		t.Fatalf("first run: built %v, %d rows, want a build of the 120 children", built, len(r.ids))
	}
	if again, built := build(first); built || again != r {
		t.Fatalf("the same key set built again (%v)", built)
	}
	if _, built := build(set()); !built {
		t.Fatal("an equal key set of another memo entry was served the first one's run")
	}
	for size() < maxResolveMemo {
		build(set())
	}
	for i := 0; i < 2*maxResolveMemo+5; i++ {
		build(set())
		if got := size(); got > maxResolveMemo {
			t.Fatalf("memo holds %d runs, bound is %d", got, maxResolveMemo)
		}
	}
	if got := size(); got != 5 {
		t.Errorf("memo holds %d runs after the stream, want 5 since the last flush", got)
	}
	if _, built := build(first); !built {
		t.Error("a flushed run was served")
	}
}

// TestScopedDeweyAllocatesNothingPerBinding: once its run is built, a
// scoped window step enumerates a binding's candidates, and the Dewey
// BETWEEN filter tests one, without allocating — the upper bound
// a.dewey_pos || X'FF' is compared in place, never built.
func TestScopedDeweyAllocatesNothingPerBinding(t *testing.T) {
	db := deweyDB(t, false, false)
	mustRun(t, db, deweyWindowSQL)
	st := sqlast.MustParse(deweyWindowSQL)
	_, cs, err := db.compile(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := cs.sel.steps
	if len(steps) != 2 || steps[0].name != "a" {
		t.Fatalf("want a driving the window on d, got %d steps", len(steps))
	}
	s := steps[1]
	if w, ok := s.access.(*indexRange); !ok || w.restrict == nil {
		t.Fatalf("step d's access is %s, want a scoped window", s.access.describe())
	}
	var between cexpr
	for _, f := range s.filters {
		if _, ok := f.(*cbetween); ok {
			between = f
		}
	}
	if between == nil {
		t.Fatal("step d has no BETWEEN filter")
	}
	ec := &execCtx{db: db, acct: newAccountant(0, 0), stats: make(opFrame, cs.nOps), batch: DefaultBatchSize}
	sc := ec.getScratch(ec.batch)
	ops := &OpStats{}
	rows := db.Table("fact").Rows()
	e := env{"a": rows[0]} // the first root
	n := 0
	yield := func(ids []int64) (bool, error) {
		n += len(ids)
		e["d"] = rows[ids[len(ids)-1]]
		return true, nil
	}
	if err := forEachBatch(ec, e, s, ops, sc, yield); err != nil || n == 0 {
		t.Fatalf("the window yielded %d rows (%v), want the root's descendants", n, err)
	}
	if v, err := between.eval(ec, e); err != nil || !v.Truth() {
		t.Fatalf("BETWEEN over a descendant: %v (%v), want true", v, err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := forEachBatch(ec, e, s, ops, sc, yield); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("the scoped window allocates %v a binding, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := between.eval(ec, e); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("the Dewey BETWEEN allocates %v a row, want 0", a)
	}
}

// TestExplainScopedDeweyGolden pins the EXPLAIN of Dewey steps run over
// a key set's rows: the scan line names the key test whose rows its run
// holds, as a restricted hash join's does, and stays a "scan …:" line.
// Under EXPLAIN ANALYZE the ancestor step searches once for each value
// length of its run instead of once for each byte prefix, and the scan
// yields only rows of the key set.
func TestExplainScopedDeweyGolden(t *testing.T) {
	db := deweyDB(t, false, false)
	for _, c := range []struct {
		sql, want string
		analyze   []string
	}{
		{
			sql: deweyAncestorSQL,
			want: "scan d: key-set probes hash <1 keys of dd> est_rows=240\n" +
				"filter d: d.pid IN <1 keys of dd> est_rows=240\n" +
				"scan a: index prefix lookups fact_dp over pid IN <3 keys of ad> est_rows=6.03\n" +
				"filter a: a.pid IN <3 keys of ad> AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' est_rows=6.03\n" +
				"project: a.id, a.dewey_pos\n" +
				"distinct\n" +
				"sort: a.dewey_pos\n",
			// 240 grandchildren, each with a root and a child: one search for
			// each of the run's lengths up to a grandchild's, 3 and 6 bytes,
			// where byte prefixes would be ten.
			analyze: []string{"scan a: index prefix lookups fact_dp over pid IN <3 keys of ad> [loops=240 in=0 out=480 probes=480 "},
		},
		{
			sql: deweyWindowSQL,
			want: "scan a: key-set probes hash <1 keys of ad> est_rows=40\n" +
				"filter a: a.pid IN <1 keys of ad> est_rows=40\n" +
				"scan d: index range scan (two-sided) fact_dp over pid IN <2 keys of dd> est_rows=6.69\n" +
				"filter d: d.pid IN <2 keys of dd> AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' est_rows=6.69\n" +
				"project: d.id, d.dewey_pos\n" +
				"distinct\n" +
				"sort: d.dewey_pos\n",
			// One search a root; its 6 grandchildren and, under every fifth
			// root, 72 chain nodes: 816 rows of /p3 and /p4.
			analyze: []string{"scan d: index range scan (two-sided) fact_dp over pid IN <2 keys of dd> [loops=40 in=0 out=816 probes=40 "},
		},
	} {
		if got := explainOf(t, db, c.sql); got != c.want {
			t.Errorf("EXPLAIN %s:\ngot:\n%s\nwant:\n%s", c.sql, got, c.want)
		}
		analyze, err := db.ExplainAnalyzeWithOptions(sqlast.MustParse(c.sql), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.analyze {
			if !strings.Contains(analyze, w) {
				t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", w, analyze)
			}
		}
	}
}
