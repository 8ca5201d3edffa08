package engine

import (
	"fmt"
	"strings"
)

// The physical operator tree is the executable form of a compiled
// statement. The logical planner (plan.go) keeps producing selectPlan;
// the lowering pass below compiles each plan into operator nodes with
// stable ids, and both the serial executor (exec.go) and the morsel
// executor (parallel.go) drive the same tree. Every node owns one
// OpStats slot in the statement's stats frame (opstats.go), which is
// what EXPLAIN ANALYZE renders.

// opKind classifies a physical operator node.
type opKind int

const (
	opScan    opKind = iota // one joinStep's access path
	opFilter                // residual conjuncts of a step (or constant prefilter)
	opProject               // projection + ORDER BY key evaluation
	opCount                 // COUNT(*) aggregation (replaces opProject)
	opDedup                 // DISTINCT set, kept by the top-level collector
	opSort                  // top-level ORDER BY sort
	opUnion                 // UNION branch merge + duplicate elimination
	opSubplan               // correlated EXISTS / scalar subquery boundary
)

// String names the kind for structured reports (opReport.Kind).
func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opFilter:
		return "filter"
	case opProject:
		return "project"
	case opCount:
		return "count"
	case opDedup:
		return "distinct"
	case opSort:
		return "sort"
	case opUnion:
		return "union"
	case opSubplan:
		return "subplan"
	}
	return "op?"
}

// opNode is one operator of the physical tree. id indexes the
// statement's stats frame; ids are dense and statement-global, so a
// single []OpStats covers the whole tree including nested subplans
// and union branches.
type opNode struct {
	id    int
	kind  opKind
	label string
	// est is the planner's cardinality estimate for this operator's
	// output per loop (scan: access-path rows, filter: rows surviving
	// the step's residuals), valid when hasEst is set. EXPLAIN renders
	// it as est_rows and EXPLAIN ANALYZE derives the per-operator
	// q-error against the observed OpStats.
	est    float64
	hasEst bool
	// truncated marks the scan and filter of a step under first match
	// (selectPlan.truncated): its observed rows are a lower bound on the
	// rows that match, so only an estimate below them is refuted.
	truncated bool
	// sub lists the correlated subplans evaluated inside this
	// operator's expressions, in source order.
	sub []*subplanRef
}

// subplanRef ties a subplan boundary node to the lowered plan it
// executes, so the renderer can nest the subplan's own pipeline.
type subplanRef struct {
	node *opNode
	plan *selectPlan
}

// physSelect is the lowered pipeline of one selectPlan, in execution
// order: optional constant prefilter, then per-step scan (+ optional
// filter) pairs, then projection or COUNT(*), then DISTINCT and sort —
// each of the two only where the plan does not already imply it
// (implied.go).
type physSelect struct {
	prefilter *opNode   // nil when the plan has no constant conjuncts
	scans     []*opNode // one per joinStep
	filters   []*opNode // parallel to scans; nil entries for filterless steps
	output    *opNode   // opProject, or opCount for COUNT(*) plans
	dedup     *opNode   // nil unless DISTINCT, or when proven duplicate-free
	sort      *opNode   // nil unless ORDER BY, or when proven ordered
	ops       []*opNode // all of the above, in pipeline order
}

// physUnion is the lowered union-level machinery on top of the
// branches' own physSelects.
type physUnion struct {
	union *opNode
	sort  *opNode // nil when the union has no ORDER BY, or merges its branches
}

// lowerer assigns statement-global operator ids during lowering.
type lowerer struct{ n int }

func (l *lowerer) node(kind opKind, label string) *opNode {
	n := &opNode{id: l.n, kind: kind, label: label}
	l.n++
	return n
}

// lowerStmt compiles the statement's logical plans into the physical
// operator tree and returns the number of operator nodes (the stats
// frame size). It runs exactly once per compiled statement, inside
// compileStmt, before the plan is published to the plan cache.
func lowerStmt(cs *compiledStmt) {
	l := &lowerer{}
	if cs.sel != nil {
		l.lowerSelect(cs.sel)
	} else {
		u := cs.union
		for _, branch := range u.branches {
			l.lowerSelect(branch)
		}
		u.phys = &physUnion{union: l.node(opUnion, "union distinct")}
		if len(u.orderPos) > 0 && !u.merge {
			keys := make([]string, len(u.orderPos))
			for i, pos := range u.orderPos {
				keys[i] = u.cols[pos]
				if u.orderDesc[i] {
					keys[i] += " DESC"
				}
			}
			u.phys.sort = l.node(opSort, "union sort: "+strings.Join(keys, ", "))
		}
	}
	cs.nOps = l.n
}

// lowerSelect builds the physSelect pipeline for one plan and
// recursively lowers every correlated subplan referenced by its
// expressions.
func (l *lowerer) lowerSelect(p *selectPlan) {
	ps := &physSelect{}
	p.phys = ps
	add := func(n *opNode) *opNode {
		ps.ops = append(ps.ops, n)
		return n
	}
	if len(p.preFilters) > 0 {
		ps.prefilter = add(l.node(opFilter, fmt.Sprintf("prefilter: %d conjunct(s)", len(p.preFilters))))
		l.attachSubplans(ps.prefilter, p.preFilters)
	}
	for i, s := range p.steps {
		label := "scan " + s.name + ": " + s.access.describe()
		if s.existential {
			label += ", existential"
		}
		if i == 0 {
			label += p.orderLabel()
		}
		scan := add(l.node(opScan, label))
		scan.est, scan.hasEst, scan.truncated = s.estAccess, true, p.truncated(i)
		ps.scans = append(ps.scans, scan)
		if len(s.filters) == 0 {
			// With no filter node the step's post-filter estimate (which
			// carries any re-planning override) belongs to the scan.
			scan.est = s.estRows
			ps.filters = append(ps.filters, nil)
			continue
		}
		f := add(l.node(opFilter, "filter "+s.name+": "+joinConjuncts(s.filterSrc)))
		f.est, f.hasEst, f.truncated = s.estRows, true, p.truncated(i)
		ps.filters = append(ps.filters, f)
		l.attachSubplans(f, s.filters)
	}
	if p.countStar {
		ps.output = add(l.node(opCount, "count(*)"))
	} else {
		ps.output = add(l.node(opProject, "project: "+strings.Join(p.colNames, ", ")+p.keyLabel()))
		l.attachSubplans(ps.output, p.cols)
	}
	var keys []string
	if len(p.orderBy) > 0 && p.ordered == nil {
		var keyExprs []cexpr
		for _, k := range p.orderBy {
			key := k.src
			if k.desc {
				key += " DESC"
			}
			keys = append(keys, key)
			keyExprs = append(keyExprs, k.x)
		}
		l.attachSubplans(ps.output, keyExprs)
	}
	if p.distinct && p.unique == nil {
		ps.dedup = add(l.node(opDedup, "distinct"))
	}
	if keys != nil {
		ps.sort = add(l.node(opSort, "sort: "+strings.Join(keys, ", ")))
	}
}

// joinConjuncts renders a step's conjunct texts as one conjunction,
// parenthesising a conjunct whose top operator is OR when there is more
// than one: AND binds tighter, and the label must read as the statement
// does.
func joinConjuncts(srcs []filterText) string {
	if len(srcs) == 1 {
		return srcs[0].text
	}
	out := make([]string, len(srcs))
	for i, src := range srcs {
		if out[i] = src.text; src.or {
			out[i] = "(" + src.text + ")"
		}
	}
	return strings.Join(out, " AND ")
}

// pipeline lists the plan's lowered operators in execution order as
// canonical tokens for the exported plan shape (plantrace.go):
// "prefilter", "scan <alias>", "filter <alias>", "project", "count",
// "distinct", "sort". The tokens are derived from the phys node
// identities, not from the plan's flags, so the shape reflects what
// the lowering actually emitted.
func (p *selectPlan) pipeline() []string {
	ps := p.phys
	if ps == nil {
		return nil
	}
	scanIdx := map[*opNode]int{}
	for i, n := range ps.scans {
		scanIdx[n] = i
	}
	filterIdx := map[*opNode]int{}
	for i, n := range ps.filters {
		if n != nil {
			filterIdx[n] = i
		}
	}
	out := make([]string, 0, len(ps.ops))
	for _, n := range ps.ops {
		switch {
		case n == ps.prefilter:
			out = append(out, "prefilter")
		case n.kind == opScan:
			out = append(out, "scan "+p.steps[scanIdx[n]].name)
		case n.kind == opFilter:
			out = append(out, "filter "+p.steps[filterIdx[n]].name)
		case n.kind == opProject:
			out = append(out, "project")
		case n.kind == opCount:
			out = append(out, "count")
		case n.kind == opDedup:
			out = append(out, "distinct")
		case n.kind == opSort:
			out = append(out, "sort")
		default:
			out = append(out, "op?")
		}
	}
	return out
}

// attachSubplans walks compiled expressions for correlated subqueries,
// creating a boundary node per subquery under owner and lowering each
// subplan's own pipeline.
func (l *lowerer) attachSubplans(owner *opNode, exprs []cexpr) {
	for _, e := range exprs {
		l.walkExpr(owner, e)
	}
}

func (l *lowerer) walkExpr(owner *opNode, e cexpr) {
	switch x := e.(type) {
	case *cbin:
		l.walkExpr(owner, x.l)
		l.walkExpr(owner, x.r)
	case *cnot:
		l.walkExpr(owner, x.x)
	case *cbetween:
		l.walkExpr(owner, x.x)
		l.walkExpr(owner, x.lo)
		l.walkExpr(owner, x.hi)
	case *cisnull:
		l.walkExpr(owner, x.x)
	case *cfunc:
		for _, a := range x.args {
			l.walkExpr(owner, a)
		}
	case *cexists:
		label := "exists subplan"
		if x.negate {
			label = "not-exists subplan"
		}
		x.node = l.node(opSubplan, label)
		owner.sub = append(owner.sub, &subplanRef{node: x.node, plan: x.plan})
		l.lowerSelect(x.plan)
	case *csubq:
		label := "scalar subplan"
		if x.plan.countStar {
			label = "count(*) subplan"
		}
		x.node = l.node(opSubplan, label)
		owner.sub = append(owner.sub, &subplanRef{node: x.node, plan: x.plan})
		l.lowerSelect(x.plan)
	}
}

// finalizeFrame derives the counters that the row loops deliberately
// do not maintain. A step's filter operator sits between its scan and
// the next pipeline stage, so its row flow is implied: rowsIn is the
// scan's rowsOut, and rowsOut is the next scan's loops (the filter
// rebinds the next step once per passing row), or the output
// operator's rowsIn for the last step. Reconstructing the flow here,
// once per execution and after the worker shards have merged, keeps
// two counter writes per candidate row out of the hottest loop.
func finalizeFrame(cs *compiledStmt, frame opFrame) {
	if cs.sel != nil {
		finalizeSelect(cs.sel, frame)
		return
	}
	for _, branch := range cs.union.branches {
		finalizeSelect(branch, frame)
	}
}

func finalizeSelect(p *selectPlan, frame opFrame) {
	ps := p.phys
	for i, f := range ps.filters {
		if f == nil {
			continue
		}
		var out int64
		if i+1 < len(ps.scans) {
			out = frame[ps.scans[i+1].id].loops
		} else {
			out = frame[ps.output.id].rowsIn
		}
		frame[f.id].setRowFlow(frame[ps.scans[i].id].rowsOut, out)
	}
	for _, n := range ps.ops {
		for _, ref := range n.sub {
			finalizeSelect(ref.plan, frame)
		}
	}
}

// renderCompiled renders the operator tree as one line per operator.
// With a nil frame it is the EXPLAIN form (plan shape only); with a
// stats frame it is the EXPLAIN ANALYZE form, each line annotated with
// the operator's merged counters.
func renderCompiled(cs *compiledStmt, frame opFrame) string {
	var b strings.Builder
	if cs.sel != nil {
		writeSelect(&b, cs.sel, frame, "")
	} else {
		u := cs.union
		for i, branch := range u.branches {
			fmt.Fprintf(&b, "union branch %d:\n", i+1)
			writeSelect(&b, branch, frame, "  ")
		}
		writeNode(&b, u.phys.union, frame, "")
		if u.phys.sort != nil {
			writeNode(&b, u.phys.sort, frame, "")
		}
	}
	return b.String()
}

// writeSelect renders one plan's pipeline, nesting each operator's
// correlated subplans under it.
func writeSelect(b *strings.Builder, p *selectPlan, frame opFrame, indent string) {
	for _, n := range p.phys.ops {
		writeNode(b, n, frame, indent)
		for _, ref := range n.sub {
			writeNode(b, ref.node, frame, indent+"  ")
			writeSelect(b, ref.plan, frame, indent+"    ")
		}
	}
}

func writeNode(b *strings.Builder, n *opNode, frame opFrame, indent string) {
	b.WriteString(indent)
	b.WriteString(n.label)
	if frame != nil {
		b.WriteString(" [")
		b.WriteString(frame[n.id].String())
		b.WriteString("]")
	}
	if n.hasEst {
		b.WriteString(" est_rows=")
		b.WriteString(formatEst(n.est))
		if frame != nil {
			if loops := frame[n.id].loops; loops > 0 {
				fmt.Fprintf(b, " q=%.2f", n.qError(float64(frame[n.id].rowsOut)/float64(loops)))
			}
		}
	}
	b.WriteByte('\n')
}

// qError is the q-error of the operator's estimate against the rows it
// was observed to yield per loop. Under first match the observation is
// a lower bound: an estimate at or above it stands unrefuted (1).
func (n *opNode) qError(observed float64) float64 {
	if n.truncated && n.est >= observed {
		return 1
	}
	return qError(n.est, observed)
}

// formatEst renders a cardinality estimate compactly: whole numbers
// without a fraction, everything else with two decimals.
func formatEst(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// walkOps visits every operator node of the compiled statement in
// render order (union branches, then union-level operators; subplan
// boundaries before their nested pipelines).
func walkOps(cs *compiledStmt, fn func(n *opNode)) {
	var walkSel func(p *selectPlan)
	walkSel = func(p *selectPlan) {
		for _, n := range p.phys.ops {
			fn(n)
			for _, ref := range n.sub {
				fn(ref.node)
				walkSel(ref.plan)
			}
		}
	}
	if cs.sel != nil {
		walkSel(cs.sel)
		return
	}
	for _, branch := range cs.union.branches {
		walkSel(branch)
	}
	fn(cs.union.phys.union)
	if cs.union.phys.sort != nil {
		fn(cs.union.phys.sort)
	}
}
