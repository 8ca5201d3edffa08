package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// scopedDB is the restricted-build fixture: a four-path dimension (/a,
// /a/b, /x, /x/y) over a fact table of 400 rows in Dewey order, each
// with a path (pid, cycling over the four), a join value (text, one of
// 23, NULL on every seventh row) and its position; q holds the probe
// side's 30 values, the last of them NULL. All 400 rows over 23 text
// values are more than 16 a value, a hash join that ranks with a scan
// (fatHash); one path's 100 rows are four a value.
func scopedDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	dim, err := db.CreateTable("dim", Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"/a", "/a/b", "/x", "/x/y"} {
		dim.MustInsert(NewInt(int64(i+1)), NewText(p))
	}
	fact, err := db.CreateTable("fact", Column{"id", TInt}, Column{"pid", TInt}, Column{"text", TText}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		text := NewText(fmt.Sprint(i % 23))
		if i%7 == 0 {
			text = Null
		}
		fact.MustInsert(NewInt(int64(i)), NewInt(int64(1+i%4)), text, NewBytes(deweyOf(i+1)))
	}
	q, err := db.CreateTable("q", Column{"id", TInt}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		text := NewText(fmt.Sprint(i))
		if i == 29 {
			text = Null
		}
		q.MustInsert(NewInt(int64(i)), text)
	}
	for _, ix := range []struct {
		t    *Table
		n, c string
	}{{dim, "dim_pk", "id"}, {fact, "fact_pk", "id"}, {fact, "fact_pid", "pid"}} {
		if _, err := ix.t.CreateIndex(ix.n, ix.c); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// builds returns the hash builds the table's current state holds: the
// whole-column ones by column, and the restricted ones. The planner's
// distinct-value entries hold no row ids and are neither.
func builds(db *DB, table string) (whole map[int]map[string][]int64, scoped map[buildKey]map[string][]int64) {
	whole, scoped = map[int]map[string][]int64{}, map[buildKey]map[string][]int64{}
	for k, b := range db.Table(table).state().builds.entries() {
		switch {
		case k.run != nil, k.distinct:
		case k.in.keys == nil:
			whole[k.col] = b.hash
		default:
			scoped[k] = b.hash
		}
	}
	return whole, scoped
}

// TestScopedHashJoin runs the restricted build's cases on scopedDB.
// Every case's rows must be those of the same statement on a copy
// planned heuristic-only — which resolves no key set, so builds every
// hash over the whole column — and its plan and the builds it leaves
// behind what the case says.
func TestScopedHashJoin(t *testing.T) {
	textCol := 2
	cases := []struct {
		name, sql string
		// plan and notIn are substrings the EXPLAIN must and must not hold.
		plan, notIn []string
		// held is the rows the one restricted build holds, -1 for none;
		// whole that the table's text column has a whole-column build.
		held  int
		whole bool
	}{
		{
			name: "key set restricts the build, NULL join values on both sides",
			sql:  "SELECT q.id, f.id FROM q, fact f, dim d WHERE f.text = q.text AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/a$') ORDER BY q.id, f.id",
			plan: []string{"scan q: full scan", "scan f: hash join over pid IN <1 keys of d> est"},
			// Rows 0, 4, 8, … — every path-1 row, the NULL texts among them:
			// the key test admits a row whatever its join value.
			held: 100,
		},
		{
			name:  "key set covering every row",
			sql:   "SELECT q.id, f.id FROM q, fact f, dim d WHERE f.text = q.text AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/') ORDER BY q.id, f.id",
			plan:  []string{"scan f: hash join (low selectivity) est", "f.pid IN <4 keys of d>"},
			notIn: []string{" over "},
			held:  -1,
			whole: true,
		},
		{
			name:  "empty key set",
			sql:   "SELECT q.id, f.id FROM q, fact f, dim d WHERE f.text = q.text AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/nowhere') ORDER BY q.id, f.id",
			plan:  []string{"scan f: key-set probes fact_pid <0 keys of d>"},
			notIn: []string{"scan f: hash join"},
			held:  -1,
		},
		{
			// A literal key on a driving step: the build's buckets list row
			// ids ascending, so the rows arrive in Dewey order and no sort
			// is needed.
			name: "order proof through a restricted build",
			sql:  "SELECT DISTINCT f.id, f.dewey_pos FROM fact f, dim d WHERE f.text = '5' AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') ORDER BY f.dewey_pos",
			plan: []string{"scan f: hash join over pid IN <2 keys of d>, rows in dewey_pos order est",
				"project: f.id, f.dewey_pos (distinct by f.id)\n"},
			notIn: []string{"sort:", "distinct\n"},
			held:  200,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, oracle := scopedDB(t), scopedDB(t)
			ForceHeuristic(oracle, true)
			got, want := mustRun(t, db, tc.sql), mustRun(t, oracle, tc.sql)
			if !equalResults(got, want) {
				t.Errorf("rows %v, want %v", rowTexts(got), rowTexts(want))
			}
			if tc.held >= 0 && len(got.Rows) == 0 {
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
			whole, scoped := builds(db, "fact")
			if _, ok := whole[textCol]; ok != tc.whole {
				t.Errorf("whole-column build of fact.text: %v, want %v", ok, tc.whole)
			}
			if tc.held < 0 {
				if len(scoped) != 0 {
					t.Errorf("%d restricted builds, want none", len(scoped))
				}
				return
			}
			if len(scoped) != 1 {
				t.Fatalf("%d restricted builds, want one", len(scoped))
			}
			for k, m := range scoped {
				n := 0
				for key, ids := range m {
					n += len(ids)
					for i, id := range ids {
						if i > 0 && ids[i-1] >= id {
							t.Errorf("bucket %q lists %v: not ascending", key, ids)
						}
						if !k.in.admits(db.Table("fact").state(), id) {
							t.Errorf("bucket %q holds row %d, which the key set does not admit", key, id)
						}
					}
				}
				if k.col != textCol || n != tc.held {
					t.Errorf("build on column %d holds %d rows, want column %d and %d rows", k.col, n, textCol, tc.held)
				}
			}
		})
	}
}

// TestScopedHashMemo: restricted builds are memoised on the fact
// state by column and key set, the key set by identity — an equal set
// that is another state's memo entry is another build, never served
// the first's — and at maxResolveMemo builds the memo is flushed whole.
func TestScopedHashMemo(t *testing.T) {
	db := scopedDB(t)
	st := db.Table("fact").state()
	set := func() *keySet { return &keySet{keys: []int64{1}, has: map[int64]struct{}{1: {}}} }
	size := st.builds.len
	build := func(ks *keySet) (map[string][]int64, bool) {
		t.Helper()
		b, built, bytes, err := st.build(buildKey{col: 2, in: hashScope{col: 1, keys: ks}}, newAccountant(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if built != (bytes > 0) {
			t.Fatalf("built %v but charged %d bytes", built, bytes)
		}
		return b.hash, built
	}
	first := set()
	m, built := build(first)
	if !built {
		t.Fatal("first build was served from the memo")
	}
	if again, built := build(first); built || fmt.Sprint(again) != fmt.Sprint(m) {
		t.Fatalf("the same key set built again (%v)", built)
	}
	if _, built := build(set()); !built {
		t.Fatal("an equal key set of another memo entry was served the first one's build")
	}
	for size() < maxResolveMemo {
		build(set())
	}
	// One more drops the memo and starts over; a stream of key sets never
	// holds more than the bound.
	for i := 0; i < 2*maxResolveMemo+5; i++ {
		build(set())
		if got := size(); got > maxResolveMemo {
			t.Fatalf("memo holds %d builds, bound is %d", got, maxResolveMemo)
		}
	}
	if got := size(); got != 5 {
		t.Errorf("memo holds %d builds after the stream, want 5 since the last flush", got)
	}
	if _, built := build(first); !built {
		t.Error("a flushed build was served")
	}
}

// TestExplainRestrictedHashGolden pins the EXPLAIN of a hash join built
// over a key set's rows: the scan line names the key test whose rows the
// build holds, as the filter line names the test it runs. Under EXPLAIN
// ANALYZE the scan yields only joining rows of that key set, so the
// filter, run once per binding of its scan, passes all it takes in.
func TestExplainRestrictedHashGolden(t *testing.T) {
	db := scopedDB(t)
	const sql = "SELECT q.id, f.id FROM q, fact f, dim d WHERE f.text = q.text AND f.pid = d.id AND REGEXP_LIKE(d.path, '^/a$') ORDER BY q.id, f.id"
	const want = "scan q: full scan est_rows=30\n" +
		"scan f: hash join over pid IN <1 keys of d> est_rows=4.17\n" +
		"filter f: f.pid IN <1 keys of d> AND f.text = q.text est_rows=4.17\n" +
		"project: q.id, f.id\n" +
		"sort: q.id, f.id\n"
	if got := explainOf(t, db, sql); got != want {
		t.Fatalf("EXPLAIN:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res := mustRun(t, db, sql)
	analyze, err := db.ExplainAnalyzeWithOptions(sqlast.MustParse(sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		fmt.Sprintf("scan f: hash join over pid IN <1 keys of d> [loops=30 in=0 out=%d probes=29 ", len(res.Rows)),
		fmt.Sprintf("filter f: f.pid IN <1 keys of d> AND f.text = q.text [loops=30 in=%d out=%d ", len(res.Rows), len(res.Rows)),
	} {
		if !strings.Contains(analyze, w) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", w, analyze)
		}
	}
}
