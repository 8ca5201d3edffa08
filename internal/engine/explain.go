package engine

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlast"
)

// EXPLAIN and EXPLAIN ANALYZE render a compiled statement one line per
// operator, subplans nested under the operator that evaluates them.
// Every line is read off the decompiled plan shape (plantrace.go) — the
// description plancheck certifies — and the operator node it stands for;
// EXPLAIN ANALYZE adds each operator's merged OpStats (see opstats.go
// for counter semantics; operator times are inclusive of nested
// operators, like the indentation of the rendered tree) and the q-error
// of its estimate (selectPlan.qErrors).

// ExplainAnalyzeWithOptions executes the statement with the given
// options and returns the annotated plan. A select that ran on morsel
// workers reports their merged stats, which are the serial executor's.
func (db *DB) ExplainAnalyzeWithOptions(st sqlast.Statement, opts ExecOptions) (string, error) {
	return db.explainAnalyzeContext(nil, st, nil, opts)
}

func (db *DB) explainAnalyzeContext(ctx context.Context, st sqlast.Statement, args []Value, opts ExecOptions) (string, error) {
	key, cs, res, frame, err := db.analyze(ctx, st, args, opts, true)
	if err != nil {
		return "", err
	}
	text, err := explainText(cs, key, frame)
	if err != nil {
		return "", err
	}
	return text + fmt.Sprintf("total: rows=%d peak-mem=%dB\n", len(res.Rows), res.PeakMemBytes), nil
}

// analyze compiles and executes st under the panic guard, returning
// the plan and the execution's operator stats frame beside the result.
func (db *DB) analyze(ctx context.Context, st sqlast.Statement, args []Value, opts ExecOptions, timing bool) (key string, cs *compiledStmt, res *Result, frame opFrame, err error) {
	ac := newAccountant(opts.MaxMemoryBytes, opts.MaxRows)
	key, cs, err = db.compile(ctx, ac, st, args)
	if err != nil {
		db.notePeakMemory(ac.peakBytes())
		return key, nil, nil, nil, err
	}
	defer guardPanics(key, &err)
	res, frame, err = db.runCompiledFrame(ctx, cs, args, ac, key, timing)
	return key, cs, res, frame, err
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
		text, err = db.explain(ctx, newAccountant(opts.MaxMemoryBytes, opts.MaxRows), ex.Stmt, args)
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

// explainLine is one line of EXPLAIN: an operator (node), or the header
// of a UNION branch (node nil). est is the operator's estimate, valid
// when hasEst; q its q-error against the frame the lines were described
// with, 0 for none.
type explainLine struct {
	indent, text string
	node         *opNode
	est, q       float64
	hasEst       bool
}

// explainText renders the compiled statement: with a nil frame the
// EXPLAIN form, with an execution's stats frame the EXPLAIN ANALYZE
// form, each operator's counters and q-error beside its estimate.
func explainText(cs *compiledStmt, key string, frame opFrame) (string, error) {
	lines, err := explainLines(cs, key, frame)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l.indent)
		b.WriteString(l.text)
		if frame != nil && l.node != nil {
			fmt.Fprintf(&b, " [%s]", frame[l.node.id].String())
		}
		if l.hasEst {
			b.WriteString(" est_rows=" + formatEst(l.est))
			if l.q > 0 {
				fmt.Fprintf(&b, " q=%.2f", l.q)
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// explainLines describes the compiled statement line by line from its
// decompiled shape; frame, when set, is an execution's stats, against
// which the lines' estimates are measured.
func explainLines(cs *compiledStmt, key string, frame opFrame) ([]explainLine, error) {
	sh, err := shapeStmt(cs, key)
	if err != nil {
		return nil, err
	}
	if cs.sel != nil {
		return selectLines(nil, cs.sel, sh.Select, frame, "")
	}
	u, us := cs.union, sh.Union
	var lines []explainLine
	for i, b := range u.branches {
		lines = append(lines, explainLine{text: fmt.Sprintf("union branch %d:", i+1)})
		if lines, err = selectLines(lines, b, us.Branches[i], frame, "  "); err != nil {
			return nil, err
		}
	}
	lines = append(lines, explainLine{text: "union distinct", node: u.phys.union})
	if us.Sort {
		keys := make([]string, len(us.OrderPos))
		for i, pos := range us.OrderPos {
			keys[i] = orderKey(us.Cols[pos], us.OrderDesc[i])
		}
		lines = append(lines, explainLine{text: "union sort: " + strings.Join(keys, ", "), node: u.phys.sort})
	}
	return lines, nil
}

// selectLines appends the lines of one select: its Pipeline token by
// token, each with the operator the lowering emitted for it, and under
// each operator the subplans it evaluates.
func selectLines(lines []explainLine, p *selectPlan, sh *SelectShape, frame opFrame, indent string) ([]explainLine, error) {
	existential := map[string]bool{}
	for _, g := range sh.Unnested {
		for _, a := range g.Aliases {
			existential[a.Alias] = true
		}
	}
	step, next, qFilter := -1, 0, 0.0
	for i, n := range p.phys.ops {
		l := explainLine{indent: indent, node: n}
		verb, alias, _ := strings.Cut(sh.Pipeline[i], " ")
		switch verb {
		case "prefilter":
			l.text = fmt.Sprintf("prefilter: %d conjunct(s)", len(sh.PreFilters))
		case "scan":
			step++
			s := &sh.Steps[step]
			l.text = "scan " + alias + ": " + sh.accessText(s.Access)
			if existential[alias] {
				l.text += ", existential"
			}
			if o := sh.RowOrder; o != nil && step == 0 {
				l.text += ", rows in " + o.Col + " order"
			}
			l.est, l.hasEst = s.EstAccess, true
			if len(s.Filters) == 0 {
				l.est = s.EstRows
			}
			if frame != nil {
				l.q, qFilter, _ = p.qErrors(step, frame)
			}
		case "filter":
			s := &sh.Steps[step]
			l.text, l.est, l.hasEst, l.q = "filter "+alias+": "+sh.conjunctsText(s.Filters), s.EstRows, true, qFilter
		case "project":
			l.text = "project: " + strings.Join(sh.ColNames, ", ") + sh.projectNote()
		case "count":
			l.text = "count(*)"
		case "distinct":
			l.text = "distinct"
		case "sort":
			keys := make([]string, len(sh.OrderBy))
			for k, o := range sh.OrderBy {
				keys[k] = orderKey(sh.exprText(o.Key.Expr), o.Desc)
			}
			l.text = "sort: " + strings.Join(keys, ", ")
		}
		lines = append(lines, l)
		for _, sub := range n.sub {
			if next == len(sh.Subplans) {
				return nil, fmt.Errorf("engine: operator %d evaluates a subplan its shape lacks", n.id)
			}
			s := sh.Subplans[next]
			next++
			text := s.Kind + " subplan"
			if s.Kind == "count" {
				text = "count(*) subplan"
			}
			lines = append(lines, explainLine{indent: indent + "  ", text: text, node: sub.phys.boundary})
			var err error
			if lines, err = selectLines(lines, sub, s.Select, frame, indent+"    "); err != nil {
				return nil, err
			}
		}
	}
	return lines, nil
}

// accessText names an access path.
func (sh *SelectShape) accessText(a AccessShape) string {
	var text string
	switch a.Kind {
	case "full-scan":
		return "full scan"
	case "index-eq":
		return "index lookup " + a.Index
	case "key-probe":
		return "key-set probes " + a.Index + " " + sh.keySet(a.Resolved)
	case "hash-eq":
		text = "hash join"
	case "fat-hash":
		text = "hash join (low selectivity)"
	case "index-prefixes":
		text = "index prefix lookups " + a.Index
	case "index-range":
		sides := "one-sided"
		if a.Lo.Expr != nil && a.Hi.Expr != nil {
			sides = "two-sided"
		}
		text = "index range scan (" + sides + ") " + a.Index
	}
	if o := a.BuiltOver; o != nil {
		text += " over " + o.Col + " IN " + sh.keySet(o.Resolved)
	}
	return text
}

// keySet names the key set of Resolved[i] by its size and its alias,
// and deliberately not by the patterns behind it: the line describes
// what runs, and no regular expression does.
func (sh *SelectShape) keySet(i int) string {
	return fmt.Sprintf("<%d keys of %s>", len(sh.Resolved[i].Keys), sh.Resolved[i].Alias)
}

// conjunctsText renders a step's filters as one conjunction, an OR
// among others parenthesised: AND binds tighter, and the line must read
// as the statement does.
func (sh *SelectShape) conjunctsText(fs []ExprShape) string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = sh.exprText(f.Expr)
		if b, ok := f.Expr.(*sqlast.Binary); ok && b.Op == sqlast.OpOr && len(fs) > 1 {
			out[i] = "(" + out[i] + ")"
		}
	}
	return strings.Join(out, " AND ")
}

// exprText renders an expression as the statement has it: a set-test
// marker as the set it tests, a subplan marker as its sub-select.
func (sh *SelectShape) exprText(e sqlast.Expr) string {
	if f, ok := e.(*sqlast.Func); ok {
		switch f.Name {
		case MarkerKeySet:
			return f.Args[0].String() + " IN " + sh.keySet(markerIndex(f))
		case MarkerPairSet:
			pr := sh.Pairs[markerIndex(f)]
			return fmt.Sprintf("(%s, %s) IN <%d key pairs of %s, %s>", f.Args[0], f.Args[1],
				len(pr.Pairs), sh.Resolved[pr.A].Alias, sh.Resolved[pr.B].Alias)
		}
	}
	return sh.unmark(e).String()
}

// unmark is e with every subplan marker replaced by the sub-select it
// stands for.
func (sh *SelectShape) unmark(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case *sqlast.Binary:
		return &sqlast.Binary{Op: x.Op, L: sh.unmark(x.L), R: sh.unmark(x.R)}
	case *sqlast.Not:
		return &sqlast.Not{X: sh.unmark(x.X)}
	case *sqlast.Between:
		return &sqlast.Between{X: sh.unmark(x.X), Lo: sh.unmark(x.Lo), Hi: sh.unmark(x.Hi)}
	case *sqlast.IsNull:
		return &sqlast.IsNull{X: sh.unmark(x.X), Negate: x.Negate}
	case *sqlast.Func:
		if x.Name != MarkerExists && x.Name != MarkerNotExists && x.Name != MarkerScalar {
			f := &sqlast.Func{Name: x.Name, Args: make([]sqlast.Expr, len(x.Args))}
			for i, a := range x.Args {
				f.Args[i] = sh.unmark(a)
			}
			return f
		}
		sel := sh.Subplans[markerIndex(x)].Source
		if x.Name == MarkerScalar {
			return &sqlast.Subquery{Select: sel}
		}
		return &sqlast.Exists{Select: sel, Negate: x.Name == MarkerNotExists}
	}
	return e
}

// markerIndex is the index a marker call carries, its last argument.
func markerIndex(f *sqlast.Func) int {
	return int(f.Args[len(f.Args)-1].(*sqlast.IntLit).Value)
}

// projectNote annotates the projection with what the proofs left out:
// the distinct operator (Unique), and the bindings the first-match run
// does not look for.
func (sh *SelectShape) projectNote() string {
	u := sh.Unique
	switch {
	case u != nil && sh.FirstMatchFrom > 0:
		return " (distinct by " + u.Alias + "." + u.Col + ", first match)"
	case u != nil:
		return " (distinct by " + u.Alias + "." + u.Col + ")"
	case sh.FirstMatchFrom > 0:
		return " (first match from " + sh.Steps[sh.FirstMatchFrom].Alias + ")"
	}
	return ""
}

// orderKey renders one ORDER BY key.
func orderKey(text string, desc bool) string {
	if desc {
		return text + " DESC"
	}
	return text
}

// formatEst renders a cardinality estimate compactly: whole numbers
// without a fraction, everything else with two decimals.
func formatEst(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// OperatorCount returns the number of physical operator nodes the
// statement lowers to (scans, filters, projections, dedup, sorts,
// union machinery, and correlated-subplan boundaries) — the
// per-operator companion to JoinSteps for experiment reports.
func (db *DB) OperatorCount(st sqlast.Statement) (int, error) {
	_, cs, err := db.compile(nil, nil, st, nil)
	if err != nil {
		return 0, err
	}
	return cs.nOps, nil
}

// qErrors measures step i's estimates against what frame observed per
// binding. scan is the q-error of the estimate the step's scan operator
// carries — the access path's output, or without a filter operator the
// rows past the step — and filter that of the post-filter estimate its
// filter operator carries (0 without one); ok is false for a step that
// never executed.
func (p *selectPlan) qErrors(i int, frame opFrame) (scan, filter float64, ok bool) {
	sc := frame[p.phys.scans[i].id]
	if sc.loops == 0 {
		return 0, 0, false
	}
	s, f := p.steps[i], p.phys.filters[i]
	access := float64(sc.rowsOut) / float64(sc.loops)
	rows := access
	if f != nil {
		// The filter runs once per binding of its scan (finalizeFrame).
		rows = float64(frame[f.id].rowsOut) / float64(sc.loops)
	}
	// Under first match the step stopped at the match: what it consumed
	// bounds what matches from below, and refutes only an estimate
	// beneath it.
	if p.truncated(i) {
		access = math.Max(access, s.estAccess)
		rows = math.Max(rows, s.estRows)
	}
	if f == nil {
		return qError(s.estRows, rows), 0, true
	}
	return qError(s.estAccess, access), qError(s.estRows, rows), true
}
