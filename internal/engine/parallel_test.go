package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// bigDB builds a synthetic database whose driving tables span many
// morsels, so the parallel executor actually partitions work (the
// engine_test fixture is a single morsel and exercises the serial
// fallback instead). Generation is deterministic.
func bigDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	item, err := db.CreateTable("item",
		Column{"id", TInt}, Column{"par", TInt}, Column{"dewey_pos", TBytes},
		Column{"path_id", TInt}, Column{"text", TText}, Column{"val", TInt},
		Column{"score", TFloat})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := db.CreateTable("cat", Column{"id", TInt}, Column{"name", TText})
	if err != nil {
		t.Fatal(err)
	}
	const nItems = 4096
	const nCats = 64
	for i := 0; i < nCats; i++ {
		cat.MustInsert(NewInt(int64(i)), NewText(fmt.Sprintf("cat-%d", i%7)))
	}
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int64(rnd % uint64(n))
	}
	for i := 0; i < nItems; i++ {
		dew := []byte{1, byte(next(16)), byte(next(16)), byte(next(16))}
		val := NewInt(next(100))
		if next(10) == 0 {
			val = Null
		}
		item.MustInsert(NewInt(int64(i)), NewInt(next(nItems)), NewBytes(dew),
			NewInt(1+next(8)), NewText(fmt.Sprintf("%d", next(1000))), val,
			NewFloat(float64(next(1000))/8))
	}
	for _, ix := range []struct {
		n    string
		cols []string
	}{
		{"item_pk", []string{"id"}},
		{"item_par", []string{"par"}},
		{"item_dp", []string{"dewey_pos", "path_id"}},
	} {
		if _, err := item.CreateIndex(ix.n, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("cat_pk", "id"); err != nil {
		t.Fatal(err)
	}
	// A path summary over item.path_id's eight values (and, through
	// item.par, over eight item ids), for plan-time resolution.
	paths, err := db.CreateTable("paths", Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"/a", "/a/b", "/a/b/c", "/a/b/d", "/a/c", "/x", "/x/y", "/x/y/z"} {
		paths.MustInsert(NewInt(int64(i+1)), NewText(p))
	}
	if _, err := paths.CreateIndex("paths_pk", "id"); err != nil {
		t.Fatal(err)
	}
	// A relation of one element type under two paths, /a/b and /x/y, as
	// the schema-aware mapping stores DBLP's authors: its text joins
	// itself across the two, through a hash built over one path's rows.
	au, err := db.CreateTable("au", Column{"id", TInt}, Column{"par", TInt}, Column{"path_id", TInt}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		pid := int64(2)
		if next(4) == 0 {
			pid = 7
		}
		au.MustInsert(NewInt(int64(i)), NewInt(next(nItems)), NewInt(pid), NewText(fmt.Sprintf("%d", next(40))))
	}
	if _, err := au.CreateIndex("au_par", "par"); err != nil {
		t.Fatal(err)
	}
	// A forest stored as the Edge mapping stores a document, one relation
	// in document order: 600 /a trees of one to three /a/b, each over up to
	// three /a/b/c and one /a/b/d, and one /a/c; 100 /x trees of two /x/y
	// over one /x/y/z. Its Dewey steps run over the rows their key sets
	// admit.
	nd, err := db.CreateTable("nd", Column{"id", TInt}, Column{"par", TInt},
		Column{"dewey_pos", TBytes}, Column{"path_id", TInt}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	node := func(par int64, pos []byte, pid int64, text Value) (int64, []byte) {
		id := int64(len(rows))
		rows = append(rows, []Value{NewInt(id), NewInt(par), NewBytes(pos), NewInt(pid), text})
		return id, pos
	}
	child := func(pos []byte, ord int) []byte { return append(append([]byte(nil), pos...), 0, 0, byte(ord)) }
	word := func() Value { return NewText(fmt.Sprint(next(20))) }
	for r := 1; r <= 700; r++ {
		root := []byte{byte(r >> 16), byte(r >> 8), byte(r)}
		if r > 600 {
			x, xp := node(-1, root, 6, Null)
			for k := 1; k <= 2; k++ {
				y, yp := node(x, child(xp, k), 7, Null)
				node(y, child(yp, 1), 8, word())
			}
			continue
		}
		a, ap := node(-1, root, 1, Null)
		bs := 1 + int(next(3))
		for k := 1; k <= bs; k++ {
			b, bp := node(a, child(ap, k), 2, Null)
			cs := int(next(4))
			for j := 1; j <= cs; j++ {
				node(b, child(bp, j), 3, word())
			}
			node(b, child(bp, cs+1), 4, word())
		}
		node(a, child(ap, bs+1), 5, word())
	}
	if _, err := nd.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		n    string
		cols []string
	}{
		{"nd_pk", []string{"id"}},
		{"nd_par", []string{"par"}},
		{"nd_path", []string{"path_id"}},
		{"nd_dp", []string{"dewey_pos", "path_id"}},
	} {
		if _, err := nd.CreateIndex(ix.n, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// parallelQueries cover every access path, DISTINCT, COUNT(*),
// correlated EXISTS, UNION, dynamic patterns, both sort paths
// (memcomparable keys, and the generic fallback via the float
// column), plan-time resolution: key-set probes driving through
// the transient hash and through an index, a pair set, and a
// dimension a projection keeps — and the implied properties: selects
// lowered without distinct, without sort, with first match, over a
// merged key probe, and a UNION that merges its branches — and the
// unnested EXISTS: existential aliases that drive, that trail under
// first match, one and two to a run, and nested ones — and hash joins
// built over the rows a key set admits.
var parallelQueries = []string{
	"SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id",
	"SELECT i.id FROM item i WHERE i.dewey_pos BETWEEN X'0102' AND X'0104' ORDER BY i.id DESC",
	"SELECT DISTINCT i.path_id FROM item i ORDER BY i.path_id DESC",
	"SELECT DISTINCT i.text FROM item i ORDER BY i.text",
	"SELECT COUNT(*) FROM item i WHERE i.val < 10",
	"SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id",
	"SELECT i.id, j.id FROM item i, item j WHERE j.par = i.id AND i.val > 80 ORDER BY i.id, j.id",
	"SELECT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.id",
	"SELECT i.id FROM item i WHERE REGEXP_LIKE(i.text, '^1[0-9]*$') ORDER BY i.id",
	"SELECT i.id FROM item i ORDER BY i.score, i.id",
	"SELECT i.id FROM item i ORDER BY i.val, i.id",
	"SELECT i.id AS v FROM item i WHERE i.val = 3 UNION SELECT i.id AS v FROM item i WHERE i.val = 5 ORDER BY v",
	resolutionQueries[0], resolutionQueries[1], resolutionQueries[2], resolutionQueries[3],
	impliedQueries[0], impliedQueries[1], impliedQueries[2], impliedQueries[3],
	unnestQueries[0], unnestQueries[1], unnestQueries[2], unnestQueries[3], unnestQueries[4], unnestQueries[5],
	restrictedQueries[0], restrictedQueries[1],
	scopedDeweyQueries[0], scopedDeweyQueries[1], scopedDeweyQueries[2], scopedDeweyQueries[3],
}

// scopedDeweyQueries are parallelQueries' Edge Q6, Q7, QA and QD2, over
// nd, in the order TestParallelQueriesCoverScopedDewey expects their
// plans: an ancestor step (//c/ancestor::a-or-b), an ancestor-or-self
// join the planner turns into a window under first match
// (//(c|d)/ancestor-or-self::b), two descendant windows under an EXISTS
// (/a[b/c = c]) and one beside it (/a[c >= '5']//d).
var scopedDeweyQueries = [4]string{
	"SELECT DISTINCT e2.id, e2.dewey_pos FROM nd e1, paths p1, nd e2, paths p2 WHERE e1.path_id = p1.id AND REGEXP_LIKE(p1.path, '^/a/b/c$') AND " +
		"e2.path_id = p2.id AND REGEXP_LIKE(p2.path, '^/a(/b)?$') AND e1.dewey_pos BETWEEN e2.dewey_pos AND e2.dewey_pos || X'FF' AND e2.id <> e1.id ORDER BY e2.dewey_pos",
	"SELECT DISTINCT e2.id, e2.dewey_pos FROM nd e1, paths p1, nd e2, paths p2 WHERE e1.path_id = p1.id AND REGEXP_LIKE(p1.path, '^/a/b/[cd]$') AND " +
		"e2.path_id = p2.id AND REGEXP_LIKE(p2.path, '^/a/b$') AND e1.dewey_pos BETWEEN e2.dewey_pos AND e2.dewey_pos || X'FF' ORDER BY e2.dewey_pos",
	"SELECT DISTINCT e1.id, e1.dewey_pos FROM nd e1, paths p1 WHERE e1.path_id = p1.id AND REGEXP_LIKE(p1.path, '^/a$') AND EXISTS (SELECT NULL FROM nd e2, paths p2, nd e3, paths p3 WHERE " +
		"e2.path_id = p2.id AND REGEXP_LIKE(p2.path, '^/a/b/c$') AND e2.dewey_pos BETWEEN e1.dewey_pos AND e1.dewey_pos || X'FF' AND e2.id <> e1.id AND " +
		"e3.path_id = p3.id AND REGEXP_LIKE(p3.path, '^/a/c$') AND e3.dewey_pos BETWEEN e1.dewey_pos AND e1.dewey_pos || X'FF' AND e3.id <> e1.id AND e2.text = e3.text) ORDER BY e1.dewey_pos",
	"SELECT DISTINCT e3.id, e3.dewey_pos FROM nd e1, paths p1, nd e3, paths p3 WHERE e1.path_id = p1.id AND REGEXP_LIKE(p1.path, '^/a$') AND " +
		"EXISTS (SELECT NULL FROM nd e2, paths p2 WHERE e2.path_id = p2.id AND REGEXP_LIKE(p2.path, '^/a/c$') AND e2.par = e1.id AND e2.text >= '5') AND " +
		"e3.path_id = p3.id AND REGEXP_LIKE(p3.path, '^/a/b/d$') AND e3.dewey_pos BETWEEN e1.dewey_pos AND e1.dewey_pos || X'FF' AND e3.id <> e1.id ORDER BY e3.dewey_pos",
}

// TestParallelQueriesCoverScopedDewey keeps the Edge Dewey forms
// honest: the matrices that run parallelQueries cover ancestor steps
// and descendant windows run over the rows their key sets admit — on
// the first plan and on the one adaptive re-planning settles on — only
// while the planner plans them that way.
func TestParallelQueriesCoverScopedDewey(t *testing.T) {
	db := bigDB(t)
	for i, want := range [][]string{
		{"index prefix lookups nd_dp over path_id IN <2 keys of p2>"},
		{"scan e1: index range scan (two-sided) nd_dp over path_id IN <2 keys of p1> est", "(distinct by e2.id, first match)"},
		{"index range scan (two-sided) nd_dp over path_id IN <1 keys of p2>, existential", "index range scan (two-sided) nd_dp over path_id IN <1 keys of p3>, existential"},
		{"index range scan (two-sided) nd_dp over path_id IN <1 keys of p3>"},
	} {
		q := scopedDeweyQueries[i]
		st := sqlast.MustParse(q)
		for n := 0; n <= maxAdaptiveReplans+1; n++ {
			plan := explainOf(t, db, q)
			for _, w := range want {
				if !strings.Contains(plan, w) {
					t.Errorf("%s:\nplan %d lacks %q:\n%s", q, n, w, plan)
				}
			}
			if _, err := run(db, st); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// restrictedQueries are parallelQueries' QD5 forms, in the order
// TestParallelQueriesCoverRestrictedHash expects their plans: the value
// join of two path-filtered relations, on the schema-aware mapping
// (one element relation, au, under both paths) and on the Edge mapping
// (one relation for everything).
var restrictedQueries = [2]string{
	"SELECT DISTINCT t.id, t.dewey_pos FROM item p, item t, paths tp WHERE EXISTS (SELECT NULL FROM au a, paths ap, au b, paths bp WHERE " +
		"a.path_id = ap.id AND REGEXP_LIKE(ap.path, '^/a/b$') AND a.par = p.id AND b.path_id = bp.id AND REGEXP_LIKE(bp.path, '^/x/y$') AND a.text = b.text) AND " +
		"t.path_id = tp.id AND REGEXP_LIKE(tp.path, '^/a/c$') AND t.par = p.id ORDER BY t.dewey_pos",
	"SELECT DISTINCT t.id, t.dewey_pos FROM item p, paths pp, item t, paths tp WHERE p.path_id = pp.id AND REGEXP_LIKE(pp.path, '^/a(/b)?$') AND " +
		"EXISTS (SELECT NULL FROM item a, paths ap, item b, paths bp WHERE a.path_id = ap.id AND REGEXP_LIKE(ap.path, '^/a/b') AND a.par = p.id AND " +
		"b.path_id = bp.id AND REGEXP_LIKE(bp.path, '^/x/y$') AND a.text = b.text) AND t.path_id = tp.id AND REGEXP_LIKE(tp.path, '^/a/b/c$') AND t.par = p.id ORDER BY t.dewey_pos",
}

// TestParallelQueriesCoverRestrictedHash keeps the QD5 forms honest:
// the matrices that run parallelQueries cover a hash join built over
// the rows its step's key set admits — on the first plan and on the one
// adaptive re-planning settles on — only while the planner plans them
// that way.
func TestParallelQueriesCoverRestrictedHash(t *testing.T) {
	db := bigDB(t)
	for _, q := range restrictedQueries {
		st := sqlast.MustParse(q)
		for i := 0; i <= maxAdaptiveReplans+1; i++ {
			for _, w := range []string{
				"scan b: hash join over path_id IN <1 keys of bp>, existential est",
				"filter b: b.path_id IN <1 keys of bp> AND a.text = b.text",
			} {
				if plan := explainOf(t, db, q); !strings.Contains(plan, w) {
					t.Errorf("%s:\nplan %d lacks %q:\n%s", q, i, w, plan)
				}
			}
			if _, err := run(db, st); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// unnestQueries are parallelQueries' unnested-EXISTS cases (unnest.go),
// in the order TestParallelQueriesCoverUnnest expects their plans, each
// the shape of a benchmark statement: a selective existential alias
// that drives (closed_by_buyer), one that drives from a literal with
// the result alias two joins away (QD1), a sub-select of two aliases
// trailing under first match (QD5 before it settles), a nested EXISTS
// flattened twice that drives from the innermost alias (Q11), an
// attribute test driving a key lookup (Edge Q9), and a low-selectivity
// one driving thousands of rows into distinct and sort (Edge Q13).
var unnestQueries = [6]string{
	"SELECT DISTINCT p.id, p.dewey_pos FROM item c, item p WHERE EXISTS (SELECT NULL FROM item b WHERE b.par = c.id AND b.text = '77') AND p.par = c.id ORDER BY p.dewey_pos",
	"SELECT DISTINCT t.id, t.dewey_pos FROM item t, paths tp WHERE t.path_id = tp.id AND REGEXP_LIKE(tp.path, '^/a') AND EXISTS (SELECT NULL FROM item a WHERE t.dewey_pos > a.dewey_pos AND a.par = t.par AND a.text = '5') ORDER BY t.dewey_pos",
	"SELECT DISTINCT i.text FROM item i WHERE i.val < 30 AND EXISTS (SELECT NULL FROM item a, item b WHERE a.par = i.id AND b.par = a.id) ORDER BY i.text",
	"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND EXISTS (SELECT NULL FROM cat c WHERE c.id = j.val AND c.name = 'cat-3')) ORDER BY i.id",
	"SELECT DISTINCT k.id, k.dewey_pos FROM item e, item k WHERE EXISTS (SELECT NULL FROM cat at1 WHERE at1.id = e.val AND at1.name = 'cat-5') AND k.par = e.id AND e.path_id = 2 ORDER BY k.dewey_pos",
	"SELECT DISTINCT e.id, e.dewey_pos FROM item e WHERE EXISTS (SELECT NULL FROM item at1 WHERE at1.par = e.id AND at1.path_id = 3) ORDER BY e.dewey_pos",
}

// TestParallelQueriesCoverUnnest keeps the unnested-EXISTS queries
// honest: the matrices cover an existential driver, a first-match run
// of two aliases and a doubly flattened EXISTS only while the planner
// still plans them that way, and none of them through a subplan.
func TestParallelQueriesCoverUnnest(t *testing.T) {
	db := bigDB(t)
	for i, want := range [][]string{
		{"scan b: hash join, existential est", "distinct\n"},
		{"scan a: hash join, existential est", "scan t: ", "distinct\n"},
		{"scan a: index lookup item_par, existential", "scan b: index lookup item_par, existential", "(first match from a)"},
		{"scan c: ", "scan j: ", ", existential"},
		{"scan at1: ", ", existential", "scan k: index lookup item_par"},
		{"scan at1: ", ", existential est", "distinct\n", "sort: e.dewey_pos"},
	} {
		q := unnestQueries[i]
		plan, err := db.Explain(sqlast.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\nplan lacks %q:\n%s", q, w, plan)
			}
		}
		if strings.Contains(plan, "subplan") {
			t.Errorf("%s:\nplan still runs a subplan:\n%s", q, plan)
		}
		if first := strings.SplitN(plan, "\n", 2)[0]; i != 2 && !strings.Contains(first, "existential") {
			t.Errorf("%s:\nno existential alias drives the plan:\n%s", q, plan)
		}
	}
}

// impliedQueries are parallelQueries' implied-property cases, in the
// order TestParallelQueriesCoverImplied expects their plans: a single
// relation with its key projected, a join the key makes existential, a
// DISTINCT over a merged key probe, and a UNION of ordered branches.
// (resolutionQueries[0] and [1] are ordered merged probes too.)
var impliedQueries = [4]string{
	"SELECT DISTINCT i.id, i.text FROM item i WHERE i.val > 50 ORDER BY i.id",
	"SELECT DISTINCT i.id FROM item i, item j WHERE j.par = i.id AND i.val > 40 ORDER BY i.id",
	"SELECT DISTINCT i.id, i.path_id FROM item i, paths p WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/x') ORDER BY i.id",
	"SELECT DISTINCT i.id AS v FROM item i WHERE i.val < 3 UNION SELECT DISTINCT i.id AS v FROM item i, paths p WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/a/b') ORDER BY v",
}

// TestParallelQueriesCoverImplied keeps the implied-property queries
// honest the way TestParallelQueriesCoverResolution keeps the
// resolution ones: the matrices cover a dropped distinct and sort, the
// first-match unwind, the merged probe and the ordered UNION merge only
// while the planner still proves them.
func TestParallelQueriesCoverImplied(t *testing.T) {
	db := bigDB(t)
	for i, want := range [][]string{
		{"scan i: full scan, rows in id order", "project: i.id, i.text (distinct by i.id)\n"},
		{"scan i: full scan, rows in id order", "scan j: index lookup item_par", "project: i.id (distinct by i.id, first match)\n"},
		{"scan i: key-set probes hash <3 keys of p>, rows in id order", "project: i.id, i.path_id (distinct by i.id)\n"},
		{"  scan i: full scan, rows in id order", "  scan i: key-set probes hash <3 keys of p>, rows in id order", "union distinct\n"},
	} {
		q := impliedQueries[i]
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Explain(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\nplan lacks %q:\n%s", q, w, plan)
			}
		}
		for _, line := range strings.Split(plan, "\n") {
			if op := strings.TrimSpace(line); op == "distinct" || strings.HasPrefix(op, "sort:") || strings.HasPrefix(op, "union sort:") {
				t.Errorf("%s:\nplan still holds %q:\n%s", q, op, plan)
			}
		}
	}
}

// resolutionQueries are parallelQueries' plan-time resolution cases,
// in the order TestParallelQueriesCoverResolution expects their plans.
var resolutionQueries = [4]string{
	"SELECT i.id FROM item i, paths p WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/a/b(/.*)?$') ORDER BY i.id",
	"SELECT i.id FROM item i, paths p WHERE i.par = p.id AND REGEXP_LIKE(p.path, '^/a') ORDER BY i.id",
	"SELECT i.id, j.id FROM item i, paths p, item j, paths q WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/a(/b)?$') AND j.par = i.id AND j.path_id = q.id AND REGEXP_LIKE(SUBSTR(q.path, LENGTH(p.path) + 1), '^/[a-z]$') ORDER BY i.id, j.id",
	"SELECT i.id, p.path FROM item i, paths p WHERE i.path_id = p.id AND REGEXP_LIKE(p.path, '^/x') AND i.val < 20 ORDER BY i.id",
}

// TestParallelQueriesCoverResolution keeps the four resolution
// queries above honest: the matrices that run parallelQueries
// (batch-size invariance, serial/parallel, budget, chaos) cover the
// key-set probe as a driving step — through the hash and through an
// index — a pair test, and a kept dimension only while the planner
// still plans them that way.
func TestParallelQueriesCoverResolution(t *testing.T) {
	db := bigDB(t)
	for i, want := range [][]string{
		{"scan i: key-set probes hash <3 keys of p>", "filter i: i.path_id IN <3 keys of p>"},
		{"scan i: key-set probes item_par <5 keys of p>"},
		{"(i.path_id, j.path_id) IN <", "key pairs of p, q>"},
		{"scan p: ", "i.path_id IN <3 keys of p>", "project: i.id, p.path"},
	} {
		q := resolutionQueries[i]
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := db.Explain(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\nplan lacks %q:\n%s", q, w, plan)
			}
		}
		if i < 3 && strings.Contains(plan, "scan p:") {
			t.Errorf("%s:\ndimension p was not eliminated:\n%s", q, plan)
		}
	}
}

// execMode is one cell of the execution matrices: the engine options,
// and the executor forced through DB.forceWorkers — 1 the serial one,
// n > 1 the morsel executor on up to n workers.
type execMode struct {
	ExecOptions
	workers int
}

// run executes st under the mode and leaves the executor decision to
// the plan again.
func (m execMode) run(db *DB, st sqlast.Statement) (*Result, error) {
	db.forceWorkers = m.workers
	defer func() { db.forceWorkers = 0 }()
	return db.RunWithOptionsContext(nil, st, m.ExecOptions)
}

// TestParallelMatchesSerial checks that the morsel executor returns
// byte-identical results (rows and order) to the serial executor.
func TestParallelMatchesSerial(t *testing.T) {
	db := bigDB(t)
	for _, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := execMode{workers: 1}.run(db, st)
		if err != nil {
			t.Fatalf("%s: serial: %v", q, err)
		}
		got, err := execMode{workers: 8}.run(db, st)
		if err != nil {
			t.Fatalf("%s: parallel: %v", q, err)
		}
		if !equalResults(want, got) {
			t.Errorf("%s: parallel result differs from serial (%d vs %d rows)",
				q, len(got.Rows), len(want.Rows))
		}
	}
}

// TestParallelFramesMatchSerial: the two executors are indistinguishable
// except in time. For every statement of the matrix the forced morsel
// executor's operator counters and its EXPLAIN ANALYZE, times aside,
// are the serial executor's — the driving scan counted once, the
// distinct set charged, the peak memory the same. The frame is what
// adaptive re-planning reads, so the core count must not move a plan.
func TestParallelFramesMatchSerial(t *testing.T) {
	db := bigDB(t)
	for _, q := range parallelQueries {
		st := sqlast.MustParse(q)
		// Warm-up: caches the plan, lets adaptive re-planning settle it and
		// builds the hash-join sides, so both executors below run one plan
		// and do the same work.
		for i := 0; i <= maxAdaptiveReplans; i++ {
			if _, err := run(db, st); err != nil {
				t.Fatalf("%s: warm-up: %v", q, err)
			}
		}
		_, cs, err := db.compile(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		var frames [2]opFrame
		var plans [2]string
		for i, workers := range []int{1, 8} {
			db.forceWorkers = workers
			if _, frames[i], err = db.runCompiledFrame(nil, cs, nil, ExecOptions{}, q, false); err != nil {
				t.Fatalf("%s workers=%d: %v", q, workers, err)
			}
			if plans[i], err = db.ExplainAnalyzeWithOptions(st, ExecOptions{}); err != nil {
				t.Fatalf("%s workers=%d: %v", q, workers, err)
			}
		}
		db.forceWorkers = 0
		if d := diffFrames(frames[1], frames[0]); d != "" {
			t.Errorf("%s: morsel frame differs from serial: %s", q, d)
		}
		if got, want := normalizeAnalyze(plans[1]), normalizeAnalyze(plans[0]); got != want {
			t.Errorf("%s: EXPLAIN ANALYZE differs:\n--- morsels ---\n%s--- serial ---\n%s", q, got, want)
		}
	}
}

// TestMorselDecision pins where the executor decision falls on the
// matrix: a driving step estimated at more than one morsel whose rows
// carry a join step or a correlated subplan runs on morsels when
// GOMAXPROCS allows more than one worker; single-step scans, small
// driving steps and anything at GOMAXPROCS 1 run serially.
func TestMorselDecision(t *testing.T) {
	db := bigDB(t)
	workers := func(q string) []int {
		t.Helper()
		w, err := MorselWorkers(db, sqlast.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	morsels := []string{
		"SELECT i.id, j.id FROM item i, item j WHERE j.par = i.id AND i.val > 80 ORDER BY i.id, j.id",
		"SELECT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.id",
		impliedQueries[1],
		unnestQueries[2],
	}
	serial := []string{
		"SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id",
		"SELECT COUNT(*) FROM item i WHERE i.val < 10",
		"SELECT DISTINCT i.text FROM item i ORDER BY i.text",
		"SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id",
		unnestQueries[0],
		impliedQueries[3],
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, q := range morsels {
		if got := workers(q); len(got) != 1 || got[0] != 4 {
			t.Errorf("%s: %v workers at GOMAXPROCS 4, want [4]", q, got)
		}
	}
	for _, q := range serial {
		for _, w := range workers(q) {
			if w != 1 {
				t.Errorf("%s: %d workers, want the serial executor", q, w)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	for _, q := range morsels {
		if got := workers(q); got[0] != 1 {
			t.Errorf("%s: %v workers at GOMAXPROCS 1, want the serial executor", q, got)
		}
	}
}

// TestBudgetMorselHeldRows: the rows morsel workers hold ahead
// of the head, buffered or parked, are booked on the statement's
// accountant, so under a memory budget they never exceed it, however
// many morsels finish ahead of a slow head. A Sleep failpoint stalls
// the first claimed morsel, which becomes the head, while three
// workers run ahead over a join whose result is several times the
// budget; the statement still fails with the serial executor's error.
func TestBudgetMorselHeldRows(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const budget = 256 << 10
	st := sqlast.MustParse("SELECT i.id, j.id, j.text FROM item i, item j WHERE j.par = i.id ORDER BY i.id, j.id")
	_, want := execMode{ExecOptions{MaxMemoryBytes: budget}, 1}.run(db, st)
	if !errors.Is(want, ErrMemoryBudget) {
		t.Fatalf("serial: err = %v, want ErrMemoryBudget", want)
	}
	_, cs, err := db.compile(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ec := &execCtx{db: db, acct: newAccountant(budget, 0),
		stats: make(opFrame, cs.nOps), batch: DefaultBatchSize}
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Sleep(50*time.Millisecond).Times(1)); err != nil {
		t.Fatal(err)
	}
	db.forceWorkers = 4
	defer func() { db.forceWorkers = 0 }()
	done, sampled := make(chan struct{}), make(chan struct{})
	var peak int64
	go func() {
		defer close(sampled)
		for {
			ec.acct.holdMu.Lock()
			peak = max(peak, ec.acct.heldBytes)
			ec.acct.holdMu.Unlock()
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	_, err = ec.runTop(cs.sel)
	close(done)
	<-sampled
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("morsels: err = %v, want %q", err, want)
	}
	if peak == 0 {
		t.Fatal("no rows were held ahead of the head; the run never ran ahead")
	}
	if peak > budget {
		t.Errorf("morsel workers held %d bytes uncharged, budget %d", peak, budget)
	}
}

// TestParallelSmallTableFallsBack checks that sub-morsel inputs take
// the serial path and still produce correct results with the morsel
// executor forced.
func TestParallelSmallTableFallsBack(t *testing.T) {
	db := fixtureDB(t)
	for _, q := range []string{
		"SELECT F.id FROM F WHERE F.text = '2'",
		"SELECT DISTINCT F.par FROM F",
		"SELECT COUNT(*) FROM G",
	} {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := execMode{workers: 1}.run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execMode{workers: 4}.run(db, st)
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(want, got) {
			t.Errorf("%s: result differs on 4 morsel workers", q)
		}
	}
}

// TestParallelTimeout checks that a budget expiring while workers are
// draining morsels surfaces ErrTimeout, stops every worker, and leaks
// no goroutines.
func TestParallelTimeout(t *testing.T) {
	db := bigDB(t)
	before := runtime.NumGoroutine()
	// A non-equi self-join over 4096x4096 pairs: far more work than a
	// 2ms budget allows, so the deadline fires mid-drain.
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	_, err = execMode{ExecOptions{Timeout: 2 * time.Millisecond}, 8}.run(db, st)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// collectMorsels joins its WaitGroup before returning, so worker
	// goroutines must already be gone (allow the runtime a moment to
	// retire exiting goroutines).
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
