package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/shred"
	"repro/internal/sqlast"
)

// Mixed measures reader latency under a concurrent writer — the
// robustness experiment behind the snapshot-isolation layer (DESIGN.md
// §12), outside the paper's single-threaded scope. A dedicated
// schema-aware store is loaded with one document and the fig3 queries
// are timed three ways: quiet (no writer), while a writer goroutine
// bulk-loads further copies of the document (one WriteBatch commit per
// document), and quiet again on the grown store. The middle column
// isolates writer interference: snapshot-pinned readers never block on
// the writer, so it should sit between the two quiet columns (which
// bracket the pure data-growth effect), not above them.
//
// The per-query budget in Opts is not applied — the runs are the
// already-verified fig3 queries — but Reps and Verify are honored; with
// Verify set, the quiet store's results are checked against the native
// oracle before any timing.
func Mixed(w *Workload, o Opts) (*Table, error) {
	db := engine.NewDB()
	st, err := shred.NewSchemaAwareDB(db, w.Schema)
	if err != nil {
		return nil, err
	}
	if _, err := st.Load(w.Doc); err != nil {
		return nil, err
	}

	tr := w.NewPPFTranslator(nil)
	exec := w.execOptions()
	run := func(stmt sqlast.Statement) (*engine.Result, error) {
		return db.RunWithOptionsContext(nil, stmt, exec)
	}
	type bound struct {
		q    Query
		stmt sqlast.Statement
	}
	var qs []bound
	for _, q := range w.Queries {
		x, err := tr.Translate(q.XPath)
		if err != nil {
			return nil, fmt.Errorf("bench: translate %s: %w", q.ID, err)
		}
		if o.Verify {
			res, err := run(x.Stmt)
			if err != nil {
				return nil, err
			}
			got := make([]int64, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = r[0].I
			}
			want, err := w.OracleIDs(q)
			if err != nil {
				return nil, err
			}
			if !equalIDs(got, want) {
				return nil, fmt.Errorf("bench: %s on mixed store: %d ids, oracle has %d (%s)",
					q.ID, len(got), len(want), firstDiff(got, want))
			}
		}
		qs = append(qs, bound{q: q, stmt: x.Stmt})
	}

	reps := o.Reps
	if reps <= 0 {
		reps = 1
	}
	measure := func(label string, b bound) (Measurement, error) {
		m := Measurement{System: System(label), QueryID: b.q.ID, Reps: reps}
		// Warm-up run yields the cardinality at the current doc count.
		res, err := run(b.stmt)
		if err != nil {
			return m, err
		}
		m.Nodes = len(res.Rows)
		var total time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := run(b.stmt); err != nil {
				return m, err
			}
			total += time.Since(start)
		}
		m.Avg = total / time.Duration(reps)
		return m, nil
	}

	// Quiet baseline: one document, no writer.
	before := make([]Measurement, len(qs))
	for i, b := range qs {
		if before[i], err = measure("ppf-quiet", b); err != nil {
			return nil, err
		}
	}

	// Contended pass: the writer bulk-loads documents (one atomic
	// commit each) until every query has been timed against it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	var docsLoaded int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := st.Load(w.Doc); err != nil {
				writerErr = err
				return
			}
			docsLoaded++
			// Check stop only after a load: at least one document always
			// commits concurrently, however fast the readers finish.
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	during := make([]Measurement, len(qs))
	var contErr error
	for i, b := range qs {
		if during[i], contErr = measure("ppf-writer", b); contErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if contErr != nil {
		return nil, contErr
	}
	if writerErr != nil {
		return nil, fmt.Errorf("bench: mixed writer: %w", writerErr)
	}

	// Quiet again on the grown store: with the writer finished, the
	// delta against the contended column is interference, the delta
	// against the first column is data growth.
	after := make([]Measurement, len(qs))
	for i, b := range qs {
		if after[i], err = measure("ppf-quiet-after", b); err != nil {
			return nil, err
		}
	}

	docs := 1 + docsLoaded
	t := &Table{
		Title: fmt.Sprintf("Mixed read/write (%s): fig3 reader latency [seconds], writer bulk-loading documents (%d docs at end)",
			w.Name, docs),
		Headers: []string{"query", "# nodes (1 doc)", "quiet (1 doc)", "with writer",
			fmt.Sprintf("quiet (%d docs)", docs), "interference"},
	}
	for i := range qs {
		o.emit("mixed", w, before[i])
		o.emit("mixed", w, during[i])
		o.emit("mixed", w, after[i])
		// Interference = contended latency over the quiet latency at the
		// larger of the two bracketing doc counts; > 1x means readers
		// were genuinely slowed beyond data growth.
		interference := "-"
		if ref := after[i].Avg; ref > 0 && during[i].Avg > 0 {
			interference = fmt.Sprintf("%.1fx", float64(during[i].Avg)/float64(ref))
		}
		t.Rows = append(t.Rows, []string{
			qs[i].q.ID,
			fmt.Sprint(before[i].Nodes),
			before[i].Cell(),
			during[i].Cell(),
			after[i].Cell(),
			interference,
		})
	}
	return t, nil
}
