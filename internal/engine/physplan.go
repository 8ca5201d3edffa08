package engine

// The physical operator tree is the executable form of a compiled
// statement. The logical planner (plan.go) keeps producing selectPlan;
// the lowering pass below compiles each plan into operator nodes with
// stable ids, and both the serial executor (exec.go) and the morsel
// executor (parallel.go) drive the same tree. Every node owns one
// OpStats slot in the statement's stats frame (opstats.go). The tree
// carries no description of itself: EXPLAIN renders each operator from
// the decompiled plan shape (plantrace.go, explain.go).

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

// String names the kind: the first word of the operator's token in a
// plan shape's Pipeline (plantrace.go; a prefilter's is "prefilter"),
// and the kind the engine's tests read off a report.
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
	id   int
	kind opKind
	// sub lists the correlated subplans evaluated inside this
	// operator's expressions, in source order.
	sub []*selectPlan
}

// physSelect is the lowered pipeline of one selectPlan, in execution
// order: optional constant prefilter, then per-step scan (+ optional
// filter) pairs, then projection or COUNT(*), then DISTINCT and sort —
// each of the two only where the plan does not already imply it
// (implied.go).
type physSelect struct {
	boundary  *opNode   // opSubplan node of a correlated subplan; nil at top level
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

func (l *lowerer) node(kind opKind) *opNode {
	n := &opNode{id: l.n, kind: kind}
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
		u.phys = &physUnion{union: l.node(opUnion)}
		if len(u.orderPos) > 0 && !u.merge {
			u.phys.sort = l.node(opSort)
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
		ps.prefilter = add(l.node(opFilter))
		l.attachSubplans(ps.prefilter, p.preFilters)
	}
	for _, s := range p.steps {
		ps.scans = append(ps.scans, add(l.node(opScan)))
		if len(s.filters) == 0 {
			ps.filters = append(ps.filters, nil)
			continue
		}
		f := add(l.node(opFilter))
		ps.filters = append(ps.filters, f)
		l.attachSubplans(f, s.filters)
	}
	if p.countStar {
		ps.output = add(l.node(opCount))
	} else {
		ps.output = add(l.node(opProject))
		l.attachSubplans(ps.output, p.cols)
	}
	sorted := len(p.orderBy) > 0 && p.ordered == nil
	if sorted {
		for _, k := range p.orderBy {
			l.walkExpr(ps.output, k.x)
		}
	}
	if p.distinct && p.unique == nil {
		ps.dedup = add(l.node(opDedup))
	}
	if sorted {
		ps.sort = add(l.node(opSort))
	}
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
		l.subplan(owner, x.plan)
	case *csubq:
		l.subplan(owner, x.plan)
	}
}

// subplan lowers a correlated subplan evaluated inside owner's
// expressions under its boundary node.
func (l *lowerer) subplan(owner *opNode, plan *selectPlan) {
	n := l.node(opSubplan)
	owner.sub = append(owner.sub, plan)
	l.lowerSelect(plan)
	plan.phys.boundary = n
}

// finalizeFrame derives the counters that the row loops deliberately
// do not maintain. A step's filter operator sits between its scan and
// the next pipeline stage, so its flow is implied: it runs once per
// binding of the scan (loops), rowsIn is the scan's rowsOut, and
// rowsOut is the next scan's loops (the filter rebinds the next step
// once per passing row), or the output operator's rowsIn for the last
// step. Reconstructing the flow here, once per execution and after the
// worker shards have merged, keeps two counter writes per candidate row
// out of the hottest loop.
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
		scan := &frame[ps.scans[i].id]
		frame[f.id].setRowFlow(scan.loops, scan.rowsOut, out)
	}
	for _, n := range ps.ops {
		for _, sub := range n.sub {
			finalizeSelect(sub, frame)
		}
	}
}
