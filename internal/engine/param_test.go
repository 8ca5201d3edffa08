package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// Parameter slots (DESIGN.md, "Query shapes and parameters"): one plan
// per statement text, the values travelling with each execution; a
// slot is a value for the planner's estimates and opaque for its facts.

// paramDB is one table of 1000 rows: price cycles 0..99 (so its
// synopsis minimum is 0), name is 'common' for nine rows in ten and
// unique otherwise.
func paramDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	tb, err := db.CreateTable("t", Column{"id", TInt}, Column{"price", TInt}, Column{"name", TText})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 1000)
	for i := range rows {
		name := "common"
		if i%10 == 0 {
			name = fmt.Sprintf("rare%d", i)
		}
		rows[i] = []Value{NewInt(int64(i)), NewInt(int64(i % 100)), NewText(name)}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("t_pk", "id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// literally is st with args bound back in as literals: the statement a
// caller without slots would have sent.
func literally(t testing.TB, st sqlast.Statement, args []Value) sqlast.Statement {
	t.Helper()
	return sqlast.MapStatementLeaves(st, func(leaf sqlast.Expr) sqlast.Expr {
		p, ok := leaf.(*sqlast.Param)
		if !ok {
			return leaf
		}
		lit, err := literalOf(args[p.Slot])
		if err != nil {
			t.Fatal(err)
		}
		return lit
	})
}

// checkBindings runs the parameterised statement with each binding and
// compares the rows with the literal statement's.
func checkBindings(t *testing.T, db *DB, sql string, opts ExecOptions, bindings ...[]Value) {
	t.Helper()
	prep := mustPrepare(t, db, sql)
	for _, args := range bindings {
		got, err := prep.RunArgs(nil, args, opts)
		if err != nil {
			t.Fatalf("%s with %v: %v", sql, args, err)
		}
		want, err := run(db, literally(t, prep.st, args))
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(got, want) {
			t.Errorf("%s with %v: %d rows %v, the literal statement returns %d %v",
				sql, args, len(got.Rows), rowTexts(got), len(want.Rows), rowTexts(want))
		}
	}
}

func texts(vs ...string) [][]Value {
	out := make([][]Value, len(vs))
	for i, v := range vs {
		out[i] = []Value{NewText(v)}
	}
	return out
}

func ints(vs ...int64) [][]Value {
	out := make([][]Value, len(vs))
	for i, v := range vs {
		out[i] = []Value{NewInt(v)}
	}
	return out
}

func TestParamOnePlanManyBindings(t *testing.T) {
	db := paramDB(t)
	const q = "SELECT id FROM t WHERE name = ?1 ORDER BY id"
	hits, misses := statsDelta(db, func() {
		checkBindings(t, db, q, ExecOptions{}, texts("rare10", "rare990", "absent", "", "it's", "' OR '1'='1", "%", "naïve", "common", "rare10")...)
	})
	// The literal statements checkBindings compares with are ten texts:
	// nine misses, and a hit for the repeated one. The shape is one text:
	// one miss, nine hits.
	if want := uint64(1 + 9); misses != want {
		t.Errorf("misses = %d, want %d (one for the shape, nine for the distinct literal texts)", misses, want)
	}
	if hits != 10 {
		t.Errorf("hits = %d, want the shape's nine and the repeated literal's one", hits)
	}
}

// TestParamIsNoFact: price >= 0 holds for every row (the synopsis
// minimum is 0), so the literal statement loses its filter to the
// int-range omission. The same proof for a slot that happened to be
// compiled with 0 would answer every later binding with the whole
// table.
func TestParamIsNoFact(t *testing.T) {
	db := paramDB(t)
	lit, err := db.PlanShape(sqlast.MustParse("SELECT id FROM t WHERE price >= 0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lit.Select.Steps[0].Omitted) != 1 {
		t.Fatalf("fixture: the literal filter is not omitted: %+v", lit.Select.Steps[0])
	}
	const q = "SELECT id FROM t WHERE price >= ?1:int ORDER BY id"
	prep := mustPrepare(t, db, q)
	var shape *StmtShape
	_, err = prep.RunArgs(nil, []Value{NewInt(0)}, ExecOptions{VerifyPlan: func(tr PlanTrace) error { shape = tr.Shape; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		arg  int64
		rows int
	}{{0, 1000}, {1000, 0}, {50, 500}, {0, 1000}} {
		res, err := prep.RunArgs(nil, []Value{NewInt(c.arg)}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows {
			t.Errorf("price >= %d: %d rows, want %d", c.arg, len(res.Rows), c.rows)
		}
	}
	step := shape.Select.Steps[0]
	if len(step.Omitted) != 0 || len(step.Filters) != 1 {
		t.Errorf("the slot's filter must run: filters %v, omitted %v", step.Filters, step.Omitted)
	}
	// The estimate did read the value: 1000 of 1000 rows for >= 0.
	want := []ParamShape{{Slot: 0, Kind: sqlast.ParamInt, ReadBy: []string{"filter t"}, Peeked: true}}
	if !reflect.DeepEqual(shape.Params, want) || !reflect.DeepEqual(step.EstPeeked, []int{0}) {
		t.Errorf("params %+v (step peeked %v), want %+v", shape.Params, step.EstPeeked, want)
	}
	if step.EstRows != lit.Select.Steps[0].EstRows {
		t.Errorf("est_rows %v with the slot, %v with the literal it was compiled with", step.EstRows, lit.Select.Steps[0].EstRows)
	}
}

// TestParamKeepsItsDimension: a dimension's own conjunct with a slot is
// not evaluated at plan time (the key set would be the first binding's);
// the other conjuncts still resolve, and the alias stays a step.
func TestParamKeepsItsDimension(t *testing.T) {
	db := dimDB(t)
	if plan := explainOf(t, db, "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND LENGTH(d.path) > 3"); strings.Contains(plan, "scan d") {
		t.Fatalf("fixture: the literal dimension is not eliminated:\n%s", plan)
	}
	checkBindings(t, db, "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND LENGTH(d.path) > ?1:int ORDER BY f.id",
		ExecOptions{}, ints(3, 5, 0, 100)...)
	const mixed = "SELECT f.id FROM fact f, dim d WHERE f.pid = d.id AND REGEXP_LIKE(d.path, '^/a') AND LENGTH(d.path) > ?1:int ORDER BY f.id"
	checkBindings(t, db, mixed, ExecOptions{}, ints(3, 5, 0, 100)...)
	var shape *StmtShape
	_, err := mustPrepare(t, db, mixed).RunArgs(nil, []Value{NewInt(3)},
		ExecOptions{VerifyPlan: func(tr PlanTrace) error { shape = tr.Shape; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(shape.Select.Resolved) != 1 {
		t.Fatalf("the pattern conjunct alone should resolve d: %+v", shape.Select.Resolved)
	}
	r := shape.Select.Resolved[0]
	if r.Eliminated || len(r.Conds) != 1 || sqlast.HasParam(r.Conds[0].Expr) {
		t.Errorf("resolution %+v: want d kept by the slot's conjunct, resolved on the pattern alone", r)
	}
}

func TestParamArgumentChecks(t *testing.T) {
	db := paramDB(t)
	prep := mustPrepare(t, db, "SELECT id FROM t WHERE name = ?1 AND price > ?2:int")
	bad := [][]Value{nil, {NewText("x")}, {NewInt(1), NewInt(2)}, {NewText("x"), NewFloat(2)}}
	for _, args := range bad {
		if _, err := prep.RunArgs(nil, args, ExecOptions{}); err == nil || strings.Contains(err.Error(), "internal error") {
			t.Errorf("compile with %v: error %v, want a plain one", args, err)
		}
	}
	if _, err := prep.RunArgs(nil, []Value{NewText("common"), NewInt(98)}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// The plan is cached now: the check is the execution's.
	for _, args := range bad {
		if _, err := prep.RunArgs(nil, args, ExecOptions{}); err == nil || strings.Contains(err.Error(), "internal error") {
			t.Errorf("execute with %v: error %v, want a plain one", args, err)
		}
	}
	if _, err := prep.RunWithOptionsContext(nil, ExecOptions{}); err == nil {
		t.Error("a statement with slots ran without values")
	}
}

// TestParamConcurrentBindings: the Prepared and its plan are shared, the
// values are not, on either executor and at a forced batch capacity.
// Run under -race (make chaos).
func TestParamConcurrentBindings(t *testing.T) {
	db := paramDB(t)
	prep := mustPrepare(t, db, "SELECT id FROM t WHERE name = ?1 AND price >= ?2:int ORDER BY id")
	for _, m := range []execMode{{workers: 1}, {workers: 1, batch: 2}, {workers: 4}, {workers: 4, batch: 3}} {
		workers := m.workers
		db.forceWorkers, db.forceBatch = m.workers, m.batch
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := (g*50 + i) % 100 * 10
					args := []Value{NewText(fmt.Sprintf("rare%d", k)), NewInt(int64(g))}
					res, err := prep.RunArgs(nil, args, ExecOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					// rare<k> is row k, whose price is k % 100 == 0 or ... k is a
					// multiple of 10: price = k % 100.
					want := 0
					if int64(k%100) >= int64(g) {
						want = 1
					}
					if len(res.Rows) != want || (want == 1 && res.Rows[0][0].I != int64(k)) {
						t.Errorf("workers=%d name=rare%d price>=%d: rows %v", workers, k, g, rowTexts(res))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestParamSkewedFirstValue: a plan compiled for a value that selects
// one row meets the value that selects nine in ten. The plan the first
// value chose serves every binding — the shape compiles once — and the
// rows stay the literal statements'.
func TestParamSkewedFirstValue(t *testing.T) {
	db := paramDB(t)
	const q = "SELECT a.id FROM t a, t b WHERE a.name = ?1 AND b.id = a.id AND b.price < ?2:int ORDER BY a.id"
	var bindings [][]Value
	for i := 0; i < 8; i++ {
		bindings = append(bindings, []Value{NewText("rare10"), NewInt(50)}, []Value{NewText("common"), NewInt(50)})
	}
	hits, misses := statsDelta(db, func() { checkBindings(t, db, q, ExecOptions{}, bindings...) })
	// One compile of the shape and one of each of the two literal texts
	// the rows are compared with; every other call is a hit.
	if want := uint64(2*len(bindings) - 3); misses != 3 || hits != want {
		t.Errorf("%d misses and %d hits, want 3 and %d: a plan was compiled again", misses, hits, want)
	}
}

// TestParamExplain: EXPLAIN of a statement with slots shows them as
// written and ends with the values this call bound.
func TestParamExplain(t *testing.T) {
	db := paramDB(t)
	st := sqlast.MustParse("SELECT id FROM t WHERE name = ?1 AND price > ?2:int")
	for _, analyze := range []bool{false, true} {
		res, err := db.PrepareStmt(&sqlast.Explain{Analyze: analyze, Stmt: st}).RunArgs(nil, []Value{NewText("it's"), NewInt(7)}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(rowTexts(res), "\n")
		if !strings.Contains(plan, "t.name = ?1 AND t.price > ?2:int") ||
			!strings.HasSuffix(plan, "params: ?1='it''s' ?2=7") {
			t.Errorf("analyze=%v:\n%s", analyze, plan)
		}
	}
}

// paramQueries are parallelQueries' parameter cases over bigDB: a slot
// as the probe key of the transient hash, of an index lookup, of a
// range bound, and as a join's constant side inside an unnested EXISTS.
var paramQueries = []struct {
	sql  string
	args []Value
}{
	{"SELECT i.id FROM item i WHERE i.text = ?1 ORDER BY i.id", []Value{NewText("17")}},
	{"SELECT i.id, j.id FROM item i, item j WHERE i.id = ?1:int AND j.par = i.id ORDER BY j.id", []Value{NewInt(5)}},
	{"SELECT i.id FROM item i WHERE i.id >= ?1:int AND i.val < ?2:int ORDER BY i.id", []Value{NewInt(4000), NewInt(50)}},
	{"SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = ?1 ORDER BY i.id", []Value{NewText("cat-3")}},
	{"SELECT DISTINCT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.text = ?1) ORDER BY i.id", []Value{NewText("17")}},
}

// TestParamMatrix puts the parameter cases through what the matrices
// over parallelQueries check: at every batch size, on either executor,
// the rows and the per-operator counters are those of the statement
// with the values written in — a slot's plan is the literal's plan, and
// a cparam key probes what a clit key does — and budget overruns and an
// injected hash-build failure unwind to the same typed errors.
func TestParamMatrix(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	for _, q := range paramQueries {
		st := sqlast.MustParse(q.sql)
		lit := literally(t, st, q.args)
		prep := db.PrepareStmt(st)
		// Warm-up: both plans cached, hash sides built.
		want, err := run(db, lit)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if _, err := prep.RunArgs(nil, q.args, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		_, cs, err := db.compile(nil, nil, st, q.args)
		if err != nil {
			t.Fatal(err)
		}
		_, litCS, err := db.compile(nil, nil, lit, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			db.forceWorkers = workers
			for _, bs := range batchSizes {
				db.forceBatch = bs
				res, frame, err := db.runCompiledFrame(nil, cs, q.args, newAccountant(0, 0), q.sql, false)
				if err != nil {
					t.Fatalf("%s bs=%d workers=%d: %v", q.sql, bs, workers, err)
				}
				_, litFrame, err := db.runCompiledFrame(nil, litCS, nil, newAccountant(0, 0), q.sql, false)
				if err != nil {
					t.Fatal(err)
				}
				if !equalResults(res, want) {
					t.Errorf("%s bs=%d workers=%d: %d rows, the literal statement returns %d", q.sql, bs, workers, len(res.Rows), len(want.Rows))
				}
				if d := diffFrames(frame, litFrame); d != "" {
					t.Errorf("%s bs=%d workers=%d: operator stats differ from the literal plan's: %s", q.sql, bs, workers, d)
				}
			}
		}
		db.forceBatch = 0
		for _, f := range []struct {
			name string
			opts ExecOptions
			arm  bool
		}{
			{name: "mem-budget", opts: ExecOptions{MaxMemoryBytes: 1}},
			{name: "row-budget", opts: ExecOptions{MaxRows: 1}},
			{name: "hash-build-error", arm: true},
		} {
			for _, workers := range []int{1, 4} {
				db.forceWorkers = workers
				if f.arm {
					if err := failpoint.Enable("engine/hash-build", failpoint.Return(errChaosHash)); err != nil {
						t.Fatal(err)
					}
				}
				_, gotErr := prep.RunArgs(nil, q.args, f.opts)
				_, litErr := db.RunWithOptionsContext(nil, lit, f.opts)
				failpoint.Reset()
				if g, w := outcomeClass(t, gotErr), outcomeClass(t, litErr); g != w || strings.HasPrefix(g, "unexpected") {
					t.Errorf("%s / %s workers=%d: outcome %q, the literal statement's is %q", f.name, q.sql, workers, g, w)
				}
			}
		}
		db.forceWorkers = 4
		if res, err := prep.RunArgs(nil, q.args, ExecOptions{}); err != nil || !equalResults(res, want) {
			t.Errorf("%s: after the faults: %v", q.sql, err)
		}
	}
}
