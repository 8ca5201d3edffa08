package plancheck

import (
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
)

// Stats summarizes one corpus or matrix sweep.
type Stats struct {
	// Queries is the number of XPath queries attempted.
	Queries int
	// Checked is the number of plans certificate-checked: one per
	// (query, translator), and one more where the query's shape has
	// parameter slots — the plan of the statement with its slots open,
	// compiled the way xrel.Store.Query compiles it. Slotted counts
	// those.
	Checked int
	Slotted int
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

// translatorFor pairs a translator with the database its SQL runs on.
type translatorFor struct {
	name string
	db   *engine.DB
	tr   *core.Translator
}

// translators returns the schema-aware and Edge translator pairs for
// a workload, the schema-aware one reporting its Section 4.5 decisions
// to om; the Edge mapping has no schema to justify omissions.
func translators(w *bench.Workload, om *omissionLog) []translatorFor {
	opts := core.DefaultOptions()
	opts.OmissionTrace = om.observe
	return []translatorFor{
		{name: "schema", db: w.Aware.DB, tr: w.NewPPFTranslator(&opts)},
		{name: "edge", db: w.Edge.DB, tr: core.NewEdge(nil)},
	}
}

// checkOne translates one query under one translator and
// certificate-checks the resulting plans — of the statement Translate
// returns, and where the query's shape has slots of the statement that
// leaves them open — including every Section 4.5 omission decision the
// translation took (a shape is translated once, so a later text of it
// has none to audit); om is the log tf's translator reports to.
func checkOne(label string, tf translatorFor, query string, om *omissionLog, stats *Stats) []Finding {
	om.reset()
	sh, args, err := tf.tr.Prepare(query)
	if err != nil {
		stats.Skipped++
		return nil
	}
	var fs []Finding
	fs = append(fs, ValidateOmissions(label, om.take())...)
	stats.Omissions += om.count
	_, cfs := CheckStatement(tf.db, sh.Bind(args).Stmt, nil)
	stats.Checked++
	if len(args) > 0 {
		_, sfs := CheckStatement(tf.db, sh.Stmt, args)
		cfs = append(cfs, sfs...)
		stats.Checked++
		stats.Slotted++
	}
	for i := range cfs {
		cfs[i].Query = label
	}
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
