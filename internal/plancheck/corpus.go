package plancheck

import (
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlast"
)

// Stats summarizes one corpus or matrix sweep.
type Stats struct {
	// Queries is the number of XPath queries attempted.
	Queries int
	// Checked is the number of (query, translator) plans
	// certificate-checked.
	Checked int
	// Skipped counts translations a translator rejected (axis or
	// construct outside its supported subset).
	Skipped int
	// Omissions is the number of Section 4.5 decisions audited.
	Omissions int
}

// corpus workloads are shared between CheckCorpus and CheckMatrix:
// building the stores dominates either sweep's cost.
var (
	corpusOnce sync.Once
	corpusWs   []*bench.Workload
	corpusErr  error
)

func corpusWorkloads() ([]*bench.Workload, error) {
	corpusOnce.Do(func() {
		dblp, err := bench.NewDBLP(0.01, 1)
		if err != nil {
			corpusErr = fmt.Errorf("build dblp workload: %w", err)
			return
		}
		xmark, err := bench.NewXMark(0.01, 1)
		if err != nil {
			corpusErr = fmt.Errorf("build xmark workload: %w", err)
			return
		}
		corpusWs = []*bench.Workload{dblp, xmark}
	})
	return corpusWs, corpusErr
}

// translatorFor pairs a translation function with the database its
// SQL runs on.
type translatorFor struct {
	name      string
	db        *engine.DB
	translate func(string) (sqlast.Statement, error)
}

// translators returns the schema-aware and Edge translator pairs for
// a workload, the schema-aware one reporting its Section 4.5 decisions
// to om; the Edge mapping has no schema to justify omissions.
func translators(w *bench.Workload, om *omissionLog) []translatorFor {
	opts := core.DefaultOptions()
	opts.OmissionTrace = om.observe
	ppf := w.NewPPFTranslator(&opts)
	edge := core.NewEdge(nil)
	return []translatorFor{
		{name: "schema", db: w.Aware.DB, translate: func(q string) (sqlast.Statement, error) {
			tr, err := ppf.Translate(q)
			if err != nil {
				return nil, err
			}
			return tr.Stmt, nil
		}},
		{name: "edge", db: w.Edge.DB, translate: func(q string) (sqlast.Statement, error) {
			tr, err := edge.Translate(q)
			if err != nil {
				return nil, err
			}
			return tr.Stmt, nil
		}},
	}
}

// checkOne translates one query under one translator and
// certificate-checks the resulting plan, including every Section 4.5
// omission decision the translation took; om is the log tf's
// translator reports to.
func checkOne(label string, tf translatorFor, query string, om *omissionLog, stats *Stats) []Finding {
	om.reset()
	st, err := tf.translate(query)
	if err != nil {
		stats.Skipped++
		return nil
	}
	var fs []Finding
	fs = append(fs, ValidateOmissions(label, om.take())...)
	stats.Omissions += om.count
	_, cfs := CheckStatement(tf.db, st)
	for i := range cfs {
		cfs[i].Query = label
	}
	stats.Checked++
	return append(fs, cfs...)
}

// omissionLog accumulates omission traces between resets.
type omissionLog struct {
	traces []core.OmissionTrace
	count  int
}

func (l *omissionLog) observe(tr core.OmissionTrace) { l.traces = append(l.traces, tr) }

func (l *omissionLog) reset() { l.traces = l.traces[:0] }

func (l *omissionLog) take() []core.OmissionTrace {
	l.count += len(l.traces)
	return l.traces
}

// CheckCorpus certificate-checks every fig3 (DBLP Table 7) and
// XPathMark query under both the schema-aware and the Edge
// translator, auditing every Section 4.5 omission decision along the
// way.
func CheckCorpus() ([]Finding, Stats, error) {
	ws, err := corpusWorkloads()
	if err != nil {
		return nil, Stats{}, err
	}
	var findings []Finding
	var stats Stats
	om := &omissionLog{}
	for _, w := range ws {
		tfs := translators(w, om)
		for _, q := range w.Queries {
			stats.Queries++
			for _, tf := range tfs {
				label := fmt.Sprintf("%s/%s/%s", w.Name, q.ID, tf.name)
				findings = append(findings, checkOne(label, tf, q.XPath, om, &stats)...)
			}
		}
	}
	if stats.Checked == 0 {
		return findings, stats, fmt.Errorf("no plans checked — translation or corpus broken")
	}
	if stats.Omissions == 0 {
		return findings, stats, fmt.Errorf("no omission decisions observed — trace hook broken?")
	}
	return findings, stats, nil
}
