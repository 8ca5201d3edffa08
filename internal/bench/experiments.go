package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Table is a rendered result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Opts are experiment run options.
type Opts struct {
	Reps   int
	Budget time.Duration
	Verify bool
	// Sink, when non-nil, receives one machine-readable Record per
	// measurement in addition to the rendered table cells.
	Sink func(Record)
}

// Record is one machine-readable measurement, accumulated into the
// repo's BENCH_<experiment>.json perf trajectory by cmd/xbench -json.
type Record struct {
	Experiment   string  `json:"experiment"`
	Workload     string  `json:"workload"`
	QueryID      string  `json:"query"`
	System       string  `json:"system"`
	NsPerOp      int64   `json:"ns_per_op"`
	Nodes        int     `json:"nodes"`
	GOMAXPROCS   int     `json:"gomaxprocs"` // what bounds the engine's morsel workers
	Reps         int     `json:"reps"`
	Timeout      bool    `json:"timeout"`
	Skipped      bool    `json:"skipped"`
	Error        string  `json:"error,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Joins        int     `json:"joins"`
	Operators    int     `json:"operators"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BatchSize    int     `json:"batch_size"` // effective engine batch capacity; 0 = non-SQL system
	// Plan-quality fields (experiment "planquality" only): the plan's
	// join order and access paths, the settled plan's worst
	// per-operator q-error, adaptive re-plans taken, and total rows
	// pushed through the plan's operators.
	JoinOrder string  `json:"join_order,omitempty"`
	MaxQError float64 `json:"max_q_error,omitempty"`
	Replans   uint64  `json:"replans,omitempty"`
	WorkRows  int64   `json:"work_rows,omitempty"`
}

// emit forwards a measurement to the Opts sink, if any.
func (o Opts) emit(experiment string, w *Workload, m Measurement) {
	if o.Sink == nil {
		return
	}
	o.Sink(Record{
		Experiment:   experiment,
		Workload:     w.Name,
		QueryID:      m.QueryID,
		System:       string(m.System),
		NsPerOp:      m.Avg.Nanoseconds(),
		Nodes:        m.Nodes,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Reps:         m.Reps,
		Timeout:      m.Timeout,
		Skipped:      m.Skipped,
		Error:        m.ErrorMsg,
		CacheHitRate: m.CacheHitRate,
		Joins:        m.Joins,
		Operators:    m.Operators,
		AllocsPerOp:  m.AllocsPerOp,
		BatchSize:    m.BatchSize,
	})
}

// DefaultOpts mirror the paper's five repetitions with a generous
// per-query budget standing in for "did not complete".
func DefaultOpts() Opts {
	return Opts{Reps: 5, Budget: 60 * time.Second, Verify: true}
}

// Fig3 reproduces Figure 3: schema-aware vs schema-oblivious
// PPF-based processing, one row per query of the given workloads.
func Fig3(workloads []*Workload, o Opts) (*Table, error) {
	t := &Table{
		Title:   "Figure 3: schema-aware vs schema-oblivious (Edge-like) PPF processing [seconds]",
		Headers: []string{"query", "# nodes", "PPF", "Edge-like PPF", "slowdown"},
	}
	for _, w := range workloads {
		for _, q := range w.Queries {
			if o.Verify {
				if _, err := w.Verify(q); err != nil {
					return nil, err
				}
			}
			a := w.Measure(PPF, q, o.Reps, o.Budget)
			b := w.Measure(EdgePPF, q, o.Reps, o.Budget)
			o.emit("fig3", w, a)
			o.emit("fig3", w, b)
			slow := "-"
			if a.Avg > 0 && b.Avg > 0 && !a.Timeout && !b.Timeout {
				slow = fmt.Sprintf("%.1fx", float64(b.Avg)/float64(a.Avg))
			}
			t.Rows = append(t.Rows, []string{q.ID, fmt.Sprint(a.Nodes), a.Cell(), b.Cell(), slow})
		}
	}
	return t, nil
}

// AppendixC reproduces one half of the Appendix C table (Figure 4's
// data): every system on every query of a workload.
func AppendixC(w *Workload, o Opts) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Appendix C (%s): execution times [seconds]", w.Name),
		Headers: []string{"query", "# nodes"},
	}
	for _, sys := range Systems {
		t.Headers = append(t.Headers, string(sys))
	}
	for _, q := range w.Queries {
		if o.Verify {
			if _, err := w.Verify(q); err != nil {
				return nil, err
			}
		}
		row := []string{q.ID, ""}
		for _, sys := range Systems {
			m := w.Measure(sys, q, o.Reps, o.Budget)
			o.emit("appc", w, m)
			if m.Nodes > 0 || row[1] == "" {
				if !m.Skipped && m.ErrorMsg == "" {
					row[1] = fmt.Sprint(m.Nodes)
				}
			}
			row = append(row, m.Cell())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblatePathFilter reproduces the Section 4.5 ablation: PPF with and
// without redundant-path-filter omission.
func AblatePathFilter(w *Workload, o Opts) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation (%s): Section 4.5 path-filter omission [seconds]", w.Name),
		Headers: []string{"query", "joins on", "joins off", "omission on", "omission off", "speedup"},
	}
	off := core.DefaultOptions()
	off.PathFilterOmission = false
	trOff := w.NewPPFTranslator(&off)
	for _, q := range w.Queries {
		onTr, err := w.ppf.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		offTr, err := trOff.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		a := w.measureStmt(w.Aware.DB, onTr.Stmt, o)
		b := w.measureStmt(w.Aware.DB, offTr.Stmt, o)
		speed := "-"
		if a > 0 && b > 0 {
			speed = fmt.Sprintf("%.2fx", float64(b)/float64(a))
		}
		t.Rows = append(t.Rows, []string{
			q.ID, fmt.Sprint(onTr.Joins), fmt.Sprint(offTr.Joins),
			fmt.Sprintf("%.3f", a.Seconds()), fmt.Sprintf("%.3f", b.Seconds()), speed,
		})
	}
	return t, nil
}

// AblateFKJoin reproduces the Section 4.2 choice: FK equijoins vs
// Dewey comparisons for single-step child/parent PPFs.
func AblateFKJoin(w *Workload, o Opts) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation (%s): FK vs Dewey joins for child/parent steps [seconds]", w.Name),
		Headers: []string{"query", "FK joins", "Dewey joins", "speedup"},
	}
	off := core.DefaultOptions()
	off.FKChildParent = false
	trOff := w.NewPPFTranslator(&off)
	for _, q := range w.Queries {
		onTr, err := w.ppf.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		offTr, err := trOff.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		a := w.measureStmt(w.Aware.DB, onTr.Stmt, o)
		b := w.measureStmt(w.Aware.DB, offTr.Stmt, o)
		speed := "-"
		if a > 0 && b > 0 {
			speed = fmt.Sprintf("%.2fx", float64(b)/float64(a))
		}
		t.Rows = append(t.Rows, []string{
			q.ID, fmt.Sprintf("%.3f", a.Seconds()), fmt.Sprintf("%.3f", b.Seconds()), speed,
		})
	}
	return t, nil
}

// ExplainCheck runs EXPLAIN ANALYZE for every query of the Figure 3
// comparison (schema-aware PPF vs Edge-like PPF) and asserts the
// structural claim behind the figure: no UNION branch of the
// schema-aware translation joins more relations than the widest
// branch of the schema-oblivious one (branches are the unit of the
// paper's SQL-splitting argument — a wildcard query like //*[@id] may
// split into more branches, but each must stay narrower). It also
// verifies that every operator in both annotated plans carries runtime
// statistics. An assertion failure is returned as an error.
func ExplainCheck(workloads []*Workload, o Opts) (*Table, error) {
	t := &Table{
		Title:   "EXPLAIN ANALYZE check: per-operator stats and join counts (PPF vs Edge-like PPF)",
		Headers: []string{"query", "PPF joins", "PPF ops", "Edge joins", "Edge ops", "check"},
	}
	for _, w := range workloads {
		for _, q := range w.Queries {
			row, err := w.explainCheckRow(q)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func (w *Workload) explainCheckRow(q Query) ([]string, error) {
	counts := make(map[System][2]int, 2)
	for _, sys := range []System{PPF, EdgePPF} {
		stmt, err := w.Translate(sys, q)
		if err != nil {
			return nil, fmt.Errorf("%s %s: translate: %w", sys, q.ID, err)
		}
		db := w.dbFor(sys)
		plan, err := db.ExplainAnalyzeWithOptions(stmt, w.execOptions())
		if err != nil {
			return nil, fmt.Errorf("%s %s: explain analyze: %w", sys, q.ID, err)
		}
		if err := checkOperatorStats(plan); err != nil {
			return nil, fmt.Errorf("%s %s: %w", sys, q.ID, err)
		}
		ops, err := db.OperatorCount(stmt)
		if err != nil {
			return nil, fmt.Errorf("%s %s: operator count: %w", sys, q.ID, err)
		}
		counts[sys] = [2]int{engine.MaxBranchJoins(stmt), ops}
	}
	ppf, edge := counts[PPF], counts[EdgePPF]
	if ppf[0] > edge[0] {
		return nil, fmt.Errorf("%s: PPF branch joins %d > Edge-like PPF branch joins %d",
			q.ID, ppf[0], edge[0])
	}
	return []string{
		q.ID, fmt.Sprint(ppf[0]), fmt.Sprint(ppf[1]),
		fmt.Sprint(edge[0]), fmt.Sprint(edge[1]), "ok",
	}, nil
}

// checkOperatorStats asserts every operator line of an EXPLAIN ANALYZE
// rendering carries a stats block (the "total:" footer is exempt).
func checkOperatorStats(plan string) error {
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		if strings.HasPrefix(line, "total:") || strings.HasSuffix(strings.TrimSpace(line), ":") {
			continue
		}
		if !strings.Contains(line, "[loops=") || !strings.Contains(line, "time=") {
			return fmt.Errorf("operator line missing stats: %q", line)
		}
	}
	return nil
}

// JoinCounts reports the paper's join-count argument: FROM entries
// per query under each SQL-based translation.
func JoinCounts(w *Workload) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Join counts (%s): relations referenced per query", w.Name),
		Headers: []string{"query", "PPF", "PPF selects", "Edge-like PPF", "Accelerator"},
	}
	for _, q := range w.Queries {
		p, err := w.ppf.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		e, err := w.edgeTr.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		a, err := w.accelTr.Translate(q.XPath)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.ID, fmt.Sprint(p.Joins), fmt.Sprint(p.Selects), fmt.Sprint(e.Joins), fmt.Sprint(a.Joins),
		})
	}
	return t, nil
}

func (w *Workload) measureStmt(db *engine.DB, st sqlast.Statement, o Opts) time.Duration {
	var total time.Duration
	reps := o.Reps
	if reps <= 0 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := db.RunWithOptionsContext(nil, st, engine.ExecOptions{}); err != nil {
			return 0
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps)
}
