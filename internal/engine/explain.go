package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sqlast"
)

// EXPLAIN ANALYZE: run the statement with per-operator timing enabled
// and render the physical operator tree annotated with each
// operator's merged OpStats (see opstats.go for counter semantics;
// operator times are inclusive of nested operators, like the
// indentation of the rendered tree).

// ExplainAnalyzeWithOptions executes the statement with the given
// options and returns the annotated plan. A select that ran on morsel
// workers reports their merged stats, which are the serial executor's.
func (db *DB) ExplainAnalyzeWithOptions(st sqlast.Statement, opts ExecOptions) (string, error) {
	return db.explainAnalyzeContext(nil, st, nil, opts)
}

func (db *DB) explainAnalyzeContext(ctx context.Context, st sqlast.Statement, args []Value, opts ExecOptions) (string, error) {
	cs, res, frame, err := db.analyze(ctx, st, args, opts, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(renderCompiled(cs, frame))
	fmt.Fprintf(&b, "total: rows=%d peak-mem=%dB\n", len(res.Rows), res.PeakMemBytes)
	return b.String(), nil
}

// analyze compiles and executes st under the panic guard, returning
// the plan and the execution's operator stats frame beside the result.
func (db *DB) analyze(ctx context.Context, st sqlast.Statement, args []Value, opts ExecOptions, timing bool) (cs *compiledStmt, res *Result, frame opFrame, err error) {
	key, cs, err := db.compile(st, args)
	if err != nil {
		return nil, nil, nil, err
	}
	defer guardPanics(key, &err)
	res, frame, err = db.runCompiledFrame(ctx, cs, args, opts, key, timing)
	return cs, res, frame, err
}

// runExplainStmt executes an EXPLAIN / EXPLAIN ANALYZE statement,
// returning the rendered plan as a one-column result (one row per
// plan line) so the statement flows through the statement boundary.
// The plan of a statement with parameter slots shows them as written,
// ?1; a last line gives the values this call bound to them.
func (db *DB) runExplainStmt(ctx context.Context, ex *sqlast.Explain, args []Value, opts ExecOptions) (*Result, error) {
	var text string
	var err error
	if ex.Analyze {
		text, err = db.explainAnalyzeContext(ctx, ex.Stmt, args, opts)
	} else {
		text, err = db.explain(ex.Stmt, args)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []Value{NewText(line)})
	}
	if len(args) > 0 {
		var b strings.Builder
		b.WriteString("params:")
		for i, v := range args {
			lit, err := literalOf(v)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&b, " ?%d=%s", i+1, lit)
		}
		res.Rows = append(res.Rows, []Value{NewText(b.String())})
	}
	return res, nil
}

// OpReport is one operator's estimate-vs-observed record from an
// AnalyzeReport run, the structured companion to EXPLAIN ANALYZE's
// est_rows/q annotations for experiment harnesses (bench planquality).
type OpReport struct {
	Label string
	// Kind classifies the operator ("scan", "filter", "project",
	// "count", "distinct", "sort", "union", "subplan") so harnesses can
	// compute structural metrics (e.g. intermediate result sizes) without
	// parsing labels. Reports arrive in render order: a step's filter
	// immediately follows its scan.
	Kind string
	// EstRows is the planner's per-loop output estimate, valid when
	// HasEst (scans and filters carry estimates; projections, sorts and
	// union machinery do not).
	EstRows float64
	HasEst  bool
	Loops   int64
	RowsOut int64
	// QError is the symmetric ratio error between EstRows and the
	// observed per-loop output, 0 when the operator has no estimate or
	// never ran. For a step under first match the observation is the
	// rows consumed until the match, a lower bound: only an estimate
	// below it counts as an error.
	QError float64
}

// AnalyzeReport executes the statement and returns the per-operator
// estimate/observation records in render order, plus the result.
func (db *DB) AnalyzeReport(st sqlast.Statement, opts ExecOptions) ([]OpReport, *Result, error) {
	cs, res, frame, err := db.analyze(nil, st, nil, opts, false)
	if err != nil {
		return nil, nil, err
	}
	var reports []OpReport
	walkOps(cs, func(n *opNode) {
		r := OpReport{Label: n.label, Kind: n.kind.String(), EstRows: n.est, HasEst: n.hasEst,
			Loops: frame[n.id].loops, RowsOut: frame[n.id].rowsOut}
		if n.hasEst && r.Loops > 0 {
			r.QError = n.qError(float64(r.RowsOut) / float64(r.Loops))
		}
		reports = append(reports, r)
	})
	return reports, res, nil
}

// OperatorCount returns the number of physical operator nodes the
// statement lowers to (scans, filters, projections, dedup, sorts,
// union machinery, and correlated-subplan boundaries) — the
// per-operator companion to JoinSteps for experiment reports.
func (db *DB) OperatorCount(st sqlast.Statement) (int, error) {
	_, cs, err := db.compile(st, nil)
	if err != nil {
		return 0, err
	}
	return cs.nOps, nil
}
