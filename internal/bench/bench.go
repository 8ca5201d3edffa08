// Package bench is the experiment harness that regenerates the
// paper's evaluation (Section 5): it loads each workload into every
// storage mapping, translates and executes each benchmark query under
// every system, verifies all systems against the native oracle, and
// measures execution times for the Figure 3 / Figure 4 / Appendix C
// reports.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/staircase"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// System identifies one of the evaluated systems.
type System string

const (
	// PPF is the paper's contribution: schema-aware PPF translation.
	PPF System = "PPF"
	// EdgePPF is the schema-oblivious PPF variant of Section 5.1.
	EdgePPF System = "Edge-like PPF"
	// Staircase is the columnar staircase-join evaluator standing in
	// for MonetDB/XQuery.
	Staircase System = "MonetDB-style staircase"
	// Commercial is the native DOM evaluator standing in for the
	// commercial RDBMS's built-in XPath processor.
	Commercial System = "Commercial (native)"
	// Accel is the XPath Accelerator implementation.
	Accel System = "XPath Accelerator"
)

// Systems lists all systems in the paper's reporting order.
var Systems = []System{PPF, EdgePPF, Staircase, Commercial, Accel}

// Query is one benchmark query.
type Query struct {
	ID    string
	XPath string
}

// Workload is a generated document loaded under every mapping.
type Workload struct {
	Name    string
	Doc     *xmltree.Document
	Schema  *schema.Schema
	Queries []Query

	// MaxMemoryBytes and MaxRows are per-statement resource budgets
	// for the SQL-based systems (0 = unlimited, the paper's
	// configuration); exceeding one reports ERR for that cell.
	MaxMemoryBytes int64
	MaxRows        int64

	Aware  *shred.SchemaAwareStore
	Edge   *shred.EdgeStore
	AccelS *shred.AccelStore
	Stair  *staircase.Doc
	Oracle *native.Evaluator

	ppf     *core.Translator
	edgeTr  *core.Translator
	accelTr *accel.Translator

	// commercialOnly lists the queries the paper's commercial system
	// supported; others report N/A for the Commercial column.
	commercialOnly map[string]bool
}

// NewXMark builds the XMark workload at the given scale (1 = the
// paper's small document, 10 = large).
func NewXMark(scale float64, seed int64) (*Workload, error) {
	doc, err := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	qs := make([]Query, len(xmark.Queries))
	for i, q := range xmark.Queries {
		qs[i] = Query{ID: q.ID, XPath: q.XPath}
	}
	w := &Workload{
		Name:    fmt.Sprintf("xmark-%g", scale),
		Queries: qs,
		// Appendix C: the commercial system supports only Q23, Q24, QA.
		commercialOnly: map[string]bool{"Q23": true, "Q24": true, "QA": true},
	}
	return w, w.load(doc, xmark.Schema())
}

// NewDBLP builds the DBLP workload.
func NewDBLP(scale float64, seed int64) (*Workload, error) {
	doc, err := dblp.Generate(dblp.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	qs := make([]Query, len(dblp.Queries))
	for i, q := range dblp.Queries {
		qs[i] = Query{ID: q.ID, XPath: q.XPath}
	}
	w := &Workload{Name: fmt.Sprintf("dblp-%g", scale), Queries: qs}
	return w, w.load(doc, dblp.Schema())
}

func (w *Workload) load(doc *xmltree.Document, s *schema.Schema) error {
	w.Doc = doc
	w.Schema = s
	var err error
	if w.Aware, err = shred.NewSchemaAware(s); err != nil {
		return err
	}
	if _, err = w.Aware.Load(doc); err != nil {
		return err
	}
	if w.Edge, err = shred.NewEdge(); err != nil {
		return err
	}
	if _, err = w.Edge.Load(doc); err != nil {
		return err
	}
	if w.AccelS, err = shred.NewAccel(); err != nil {
		return err
	}
	if _, err = w.AccelS.Load(doc); err != nil {
		return err
	}
	w.Stair = staircase.FromTree(doc)
	w.Oracle = native.New(doc)
	w.ppf = core.New(s, nil)
	w.edgeTr = core.NewEdge(nil)
	w.accelTr = accel.New()
	return nil
}

// NewPPFTranslator returns a fresh schema-aware translator with
// custom options (for the ablation experiments).
func (w *Workload) NewPPFTranslator(opts *core.Options) *core.Translator {
	return core.New(w.Schema, opts)
}

// Query returns the query with the given id.
func (w *Workload) Query(id string) (Query, bool) {
	for _, q := range w.Queries {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// Supported reports whether a system runs a query in the paper's
// comparison (the commercial system supported only three queries).
func (w *Workload) Supported(sys System, queryID string) bool {
	if sys == Commercial && w.commercialOnly != nil {
		return w.commercialOnly[queryID]
	}
	return true
}

// Translate returns the SQL statement a SQL-based system uses for a
// query (nil for the non-SQL systems).
func (w *Workload) Translate(sys System, q Query) (sqlast.Statement, error) {
	switch sys {
	case PPF:
		tr, err := w.ppf.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		return tr.Stmt, nil
	case EdgePPF:
		tr, err := w.edgeTr.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		return tr.Stmt, nil
	case Accel:
		tr, err := w.accelTr.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		return tr.Stmt, nil
	}
	return nil, nil
}

// Run executes a query under a system, returning the selected element
// ids in document order.
func (w *Workload) Run(sys System, q Query) ([]int64, error) {
	return w.RunBudget(sys, q, 0)
}

// RunBudget is Run with a wall-clock budget for the SQL-based systems
// (0 means unlimited): each statement runs under a context with that
// timeout, and context.DeadlineExceeded reports an exceeded budget.
func (w *Workload) RunBudget(sys System, q Query, budget time.Duration) ([]int64, error) {
	switch sys {
	case PPF, EdgePPF, Accel:
		stmt, err := w.Translate(sys, q)
		if err != nil {
			return nil, err
		}
		return w.runStmt(sys, stmt, budget)
	case Staircase:
		return w.Stair.EvalString(q.XPath)
	case Commercial:
		return w.OracleIDs(q)
	}
	return nil, fmt.Errorf("bench: unknown system %q", sys)
}

// dbFor returns the engine database a SQL-based system queries, nil
// for the non-SQL systems.
func (w *Workload) dbFor(sys System) *engine.DB {
	switch sys {
	case PPF:
		return w.Aware.DB
	case EdgePPF:
		return w.Edge.DB
	case Accel:
		return w.AccelS.DB
	}
	return nil
}

// execOptions returns the engine options every statement of this
// workload runs under: its budgets.
func (w *Workload) execOptions() engine.ExecOptions {
	return engine.ExecOptions{MaxMemoryBytes: w.MaxMemoryBytes, MaxRows: w.MaxRows}
}

// runStmt executes a translated statement on a system's database
// (through the engine's plan cache) and extracts the node ids. A
// positive budget bounds the statement through a context deadline; with
// none it runs with no context at all.
func (w *Workload) runStmt(sys System, stmt sqlast.Statement, budget time.Duration) ([]int64, error) {
	var ctx context.Context
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), budget)
		defer cancel()
	}
	res, err := w.dbFor(sys).RunWithOptionsContext(ctx, stmt, w.execOptions())
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].I
	}
	return ids, nil
}

// OracleIDs evaluates a query with the native evaluator, mapping text
// nodes to their parent elements (the relational convention).
func (w *Workload) OracleIDs(q Query) ([]int64, error) {
	e, err := xpath.Parse(q.XPath)
	if err != nil {
		return nil, err
	}
	items, err := w.Oracle.Eval(e)
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	ids := make([]int64, 0, len(items))
	for _, it := range items {
		id := it.Node.ID
		if !it.IsAttr() && it.Node.Kind == xmltree.Text {
			id = it.Node.Parent.ID
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Verify checks that every system returns the oracle's result for a
// query. It returns the result cardinality.
func (w *Workload) Verify(q Query) (int, error) {
	want, err := w.OracleIDs(q)
	if err != nil {
		return 0, fmt.Errorf("oracle %s: %w", q.ID, err)
	}
	for _, sys := range []System{PPF, EdgePPF, Staircase, Accel} {
		got, err := w.Run(sys, q)
		if err != nil {
			return 0, fmt.Errorf("%s on %s: %w", sys, q.ID, err)
		}
		if !equalIDs(got, want) {
			return 0, fmt.Errorf("%s on %s: %d ids, oracle has %d (first diff: %s)",
				sys, q.ID, len(got), len(want), firstDiff(got, want))
		}
	}
	return len(want), nil
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []int64) string {
	as := map[int64]bool{}
	for _, x := range a {
		as[x] = true
	}
	bs := map[int64]bool{}
	for _, x := range b {
		bs[x] = true
	}
	var extra, missing []int64
	for _, x := range a {
		if !bs[x] {
			extra = append(extra, x)
		}
	}
	for _, x := range b {
		if !as[x] {
			missing = append(missing, x)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	lim := func(xs []int64) []int64 {
		if len(xs) > 5 {
			return xs[:5]
		}
		return xs
	}
	return fmt.Sprintf("extra=%v missing=%v", lim(extra), lim(missing))
}

// Measurement is one timed cell of a result table.
type Measurement struct {
	System   System
	QueryID  string
	Nodes    int
	Avg      time.Duration
	Reps     int
	Timeout  bool
	Skipped  bool // system does not support the query
	ErrorMsg string
	// CacheHitRate is the fraction of this measurement's engine
	// executions that reused a cached plan (SQL-based systems only;
	// 0 otherwise). With the statement translated once up front, every
	// run after the first should hit.
	CacheHitRate float64
	// Joins is the translated statement's join-step count and
	// Operators the number of physical operators it lowers to
	// (SQL-based systems only; 0 otherwise).
	Joins     int
	Operators int
	// AllocsPerOp is the heap allocations per timed repetition
	// (cumulative Mallocs delta across the reps loop divided by the
	// repetitions — an approximate meter including harness overhead,
	// comparable across runs of the same harness).
	AllocsPerOp int64
}

// Measure times a query under a system: reps repetitions (after one
// warm-up that also yields the cardinality), stopping early if a
// single run exceeds budget (reported as a timeout, the paper's "~").
// SQL-based systems are translated once and re-planned only when the
// engine's plan cache misses.
func (w *Workload) Measure(sys System, q Query, reps int, budget time.Duration) (m Measurement) {
	m = Measurement{System: sys, QueryID: q.ID, Reps: reps}
	if !w.Supported(sys, q.ID) {
		m.Skipped = true
		return m
	}
	db := w.dbFor(sys)
	if db == nil {
		return timed(m, budget, func() (int, error) {
			ids, err := w.RunBudget(sys, q, budget)
			return len(ids), err
		})
	}
	stmt, err := w.Translate(sys, q)
	if err != nil {
		m.ErrorMsg = err.Error()
		return m
	}
	m.Joins = engine.JoinSteps(stmt)
	if n, err := db.OperatorCount(stmt); err == nil {
		m.Operators = n
	}
	h0, mi0 := db.PlanCacheStats()
	defer func() {
		h1, mi1 := db.PlanCacheStats()
		if total := (h1 - h0) + (mi1 - mi0); total > 0 {
			m.CacheHitRate = float64(h1-h0) / float64(total)
		}
	}()
	return w.measureStmt(m, sys, stmt, budget)
}

// measureStmt times a translated statement on a SQL-based system's
// database, under the workload's budgets and budget.
func (w *Workload) measureStmt(m Measurement, sys System, stmt sqlast.Statement, budget time.Duration) Measurement {
	return timed(m, budget, func() (int, error) {
		ids, err := w.runStmt(sys, stmt, budget)
		return len(ids), err
	})
}

// timed is the package's one timing loop. It fills m from run, which
// executes the measured statement once and returns its cardinality: a
// warm-up run that yields the cardinality, then m.Reps timed runs,
// stopping early if they exceed budget on average. A warm-up past its
// deadline or longer than budget marks the cell "~", any other error
// ERR.
func timed(m Measurement, budget time.Duration, run func() (int, error)) Measurement {
	start := time.Now()
	n, err := run()
	d := time.Since(start)
	if errors.Is(err, context.DeadlineExceeded) {
		m.Timeout = true
		m.Avg = d
		return m
	}
	if err != nil {
		m.ErrorMsg = err.Error()
		return m
	}
	m.Nodes = n
	if budget > 0 && d > budget {
		m.Timeout = true
		m.Avg = d
		return m
	}
	// Mallocs is cumulative and GC-immune, so the delta across the
	// timed loop divided by the repetitions is the allocations per
	// execution (plus a constant sliver of harness overhead).
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	for i := 0; i < m.Reps; i++ {
		start := time.Now()
		if _, err := run(); err != nil {
			m.ErrorMsg = err.Error()
			return m
		}
		total += time.Since(start)
		if budget > 0 && total > budget*time.Duration(m.Reps) {
			m.Reps = i + 1
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	if m.Reps > 0 {
		m.Avg = total / time.Duration(m.Reps)
		m.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(m.Reps)
	}
	return m
}

// Cell renders a measurement the way Appendix C prints it.
func (m Measurement) Cell() string {
	switch {
	case m.Skipped:
		return "N/A"
	case m.ErrorMsg != "":
		return "ERR"
	case m.Timeout:
		return "~"
	default:
		return fmt.Sprintf("%.3f", m.Avg.Seconds())
	}
}
