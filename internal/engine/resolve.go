package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sqlast"
)

// Plan-time resolution of dimension joins (DESIGN.md §13). A PPF
// statement reaches the path summary through
//
//	X.path_id = P.id AND REGEXP_LIKE(P.path, '…')
//
// and the planner used to treat P as one more table: the path test sat
// on a second alias and ran once that alias was bound. But P is small,
// immutable in the pinned state, and joined on its key, so the rows of
// P that pass P's own conjuncts are a set of key values K the planner
// can compute once, and the join is the single-table test X.c ∈ K —
// a residual filter cheaper than any comparison, an access path, and
// an exact estimate off X.c's histogram. A conjunct over two such
// aliases (the recursion guard over two path strings) becomes a set of
// key pairs tested on the two fact columns. When nothing else mentions
// P it leaves the physical plan.
//
// The sets are computed by the executor's own compiled expressions
// over the pinned rows, so their semantics are the run-time filters'
// by construction; plancheck re-derives every set independently.

// keySet is the key values of a dimension's rows that satisfy the
// dimension's own conjuncts, for one pinned state.
type keySet struct {
	keys []int64 // ascending
	rows []int64 // parallel to keys: the id of the key's one row
	has  map[int64]struct{}
}

// pairSet is the (a, b) key pairs of two resolved dimensions whose
// rows together satisfy a conjunct over both.
type pairSet struct {
	pairs [][2]int64 // ascending
	has   map[[2]int64]struct{}
}

// resolveKey addresses one memoised set on a dimension's state: the
// key column and conjunct texts, and for a pair set the state of the
// second dimension (nil for a key set).
type resolveKey struct {
	text  string
	other *tableState
}

// resolvedSet is one memo entry; exactly one field is set.
type resolvedSet struct {
	keys  *keySet
	pairs *pairSet
}

// memoised returns the set published under k, if any.
func (st *tableState) memoised(k resolveKey) (resolvedSet, bool) {
	st.resolveMu.Lock()
	defer st.resolveMu.Unlock()
	rs, ok := st.resolved[k]
	return rs, ok
}

// memoise publishes a computed set, keeping an entry a racing compile
// published first. At maxResolveMemo entries the memo is dropped and
// refilled from the live working set, like the pattern cache.
func (st *tableState) memoise(k resolveKey, rs resolvedSet) resolvedSet {
	st.resolveMu.Lock()
	defer st.resolveMu.Unlock()
	if prev, ok := st.resolved[k]; ok {
		return prev
	}
	if st.resolved == nil || len(st.resolved) >= maxResolveMemo {
		st.resolved = make(map[resolveKey]resolvedSet)
	}
	st.resolved[k] = rs
	return rs
}

// resolution is one FROM alias P (the dimension) reached by exactly
// one equality X.c = P.k over a unique key, with the key set its own
// conjuncts select. It doubles as the evidence exported through the
// plan shape.
type resolution struct {
	alias  string
	table  *Table
	st     *tableState
	keyCol int
	// fact is the alias X the dimension hangs off; factCol its column c.
	fact    string
	factT   *Table
	factCol int
	join    *conjunct
	own     []*conjunct
	// ownCE are own's compiled forms: run over the rows when the memo
	// misses, and decompiled for the exported shape.
	ownCE  []cexpr
	memo   string // memo address of keys: key column and own texts
	keys   *keySet
	paired bool // some pair conjunct over this alias was resolved
	// eliminated: nothing but join, own and resolved pair conjuncts
	// mentions the alias, so it is not a step of the plan. Otherwise
	// keptBy names the first reference that kept it.
	eliminated bool
	keptBy     string
	index      int // position in selectPlan.resolved
}

// pairResolution is one conjunct over two resolved dimensions, replaced
// by a pair-set test on their fact columns.
type pairResolution struct {
	a, b  *resolution
	cond  cexpr // the replaced conjunct, compiled
	pairs *pairSet
	index int // position in selectPlan.pairs
}

// setTest is a conjunct the planner derived from a resolution: a key
// test on one fact column — probe, which is also the access path the
// test offers the fact table and names the resolution — or a pair test
// on two (pair), which offers no access.
type setTest struct {
	probe *keyProbe
	pair  *pairResolution
}

// keyTest builds the key test of a resolution against the pinned state
// of its fact table: the probe access — through a single-column index
// on the fact column, else the transient hash — carrying the fact rows
// that pass the test, the sum of the fact column's histogram counts
// over the keys. Summed once per select; exact while the histogram is.
func keyTest(r *resolution, factSt *tableState) *setTest {
	col := factSt.syn.Col(r.factCol)
	var n int64
	for _, k := range r.keys.keys {
		c, _ := col.EqInt(k)
		n += c
	}
	probe := &keyProbe{col: r.factCol, res: r, rows: float64(n)}
	if ix := factSt.findIndex(r.factCol); ix != nil && len(ix.Cols) == 1 {
		probe.ix = ix
	}
	return &setTest{probe: probe}
}

func (t *setTest) compiled() cexpr {
	if t.probe != nil {
		r := t.probe.res
		return &ckeyin{col: ccol{table: r.fact, pos: r.factCol}, res: r}
	}
	a, b := t.pair.a, t.pair.b
	return &cpairin{a: ccol{table: a.fact, pos: a.factCol}, b: ccol{table: b.fact, pos: b.factCol}, res: t.pair}
}

// label is the test's text in EXPLAIN. It names the resolved aliases
// and the set size, and deliberately not the patterns behind them: the
// line describes what runs, and no regular expression does.
func (t *setTest) label() string {
	if t.probe != nil {
		r := t.probe.res
		return fmt.Sprintf("%s.%s IN <%d keys of %s>", r.fact, r.factT.Cols[r.factCol].Name, len(r.keys.keys), r.alias)
	}
	a, b := t.pair.a, t.pair.b
	return fmt.Sprintf("(%s.%s, %s.%s) IN <%d key pairs of %s, %s>",
		a.fact, a.factT.Cols[a.factCol].Name, b.fact, b.factT.Cols[b.factCol].Name,
		len(t.pair.pairs.pairs), a.alias, b.alias)
}

// equiJoin is one 'A.x = B.y' conjunct between two local aliases, seen
// from one side.
type equiJoin struct {
	c        *conjunct
	col      int
	other    string
	otherT   *Table
	otherCol int
}

// resolveDimensions finds the dimensions of a select, resolves their
// key and pair sets against the pinned snapshot, rewrites the conjunct
// list — set tests in, consumed conjuncts marked done — and returns it
// with the FROM order less the eliminated aliases. The resolutions are
// recorded on the plan for the exported shape.
func (p *planner) resolveDimensions(plan *selectPlan, sel *sqlast.Select, local map[string]*Table, order []string, conjuncts []*conjunct) ([]*conjunct, []string) {
	// Under SetHeuristicOnlyPlanning the planner does not look at the
	// data at all, and this rewrite is nothing but a look at the data.
	if len(order) < 2 || p.heuristicOnly() {
		return conjuncts, order
	}
	var joins map[string][]equiJoin
	for _, c := range conjuncts {
		if len(c.localRef) != 2 {
			continue
		}
		b, ok := c.expr.(*sqlast.Binary)
		if !ok || b.Op != sqlast.OpEq {
			continue
		}
		lc, lok := b.L.(*sqlast.Col)
		rc, rok := b.R.(*sqlast.Col)
		if !lok || !rok {
			continue
		}
		ln, lt, lp, lerr := c.sc.resolve(lc)
		rn, rt, rp, rerr := c.sc.resolve(rc)
		if lerr != nil || rerr != nil || ln == rn || local[ln] != lt || local[rn] != rt {
			continue
		}
		if joins == nil {
			joins = map[string][]equiJoin{}
		}
		joins[ln] = append(joins[ln], equiJoin{c: c, col: lp, other: rn, otherT: rt, otherCol: rp})
		joins[rn] = append(joins[rn], equiJoin{c: c, col: rp, other: ln, otherT: lt, otherCol: lp})
	}
	if joins == nil {
		return conjuncts, order
	}

	// Candidates, in FROM order. An equality serves one resolution: of
	// two aliases joined key to key, the first is the dimension.
	var dims []*resolution
	byAlias := map[string]*resolution{}
	used := map[*conjunct]bool{}
	for _, name := range order {
		js := joins[name]
		if len(js) != 1 || used[js[0].c] {
			continue
		}
		j := js[0]
		t := local[name]
		st := p.snap.stateOf(t)
		if t.Cols[j.col].Type != TInt || j.otherT.Cols[j.otherCol].Type != TInt || len(st.rows) > maxResolveRows {
			continue
		}
		ix := st.findIndex(j.col)
		if ix == nil || len(ix.Cols) != 1 || ix.Tree.Len() != ix.Tree.Pairs() {
			continue
		}
		r := &resolution{alias: name, table: t, st: st, keyCol: j.col,
			fact: j.other, factT: j.otherT, factCol: j.otherCol, join: j.c}
		pairable := false
		for _, c := range conjuncts {
			if c == j.c || !c.localRef[name] {
				continue
			}
			switch {
			case len(c.localRef) == 1 && refsOnlyTable(c.expr, name, t) && !sqlast.HasParam(c.expr):
				// A conjunct with a parameter slot selects other keys under
				// the next binding: it stays a filter of the alias, which it
				// thereby keeps in the plan.
				r.own = append(r.own, c)
			case len(c.localRef) == 2:
				pairable = true
			}
		}
		if len(r.own) == 0 && !pairable {
			continue
		}
		// Resolve only what the executor could otherwise find only by
		// scanning the dimension: where its conjuncts offer an index or
		// hash lookup (a_id = 'x'), that lookup at run time beats a scan
		// of the dimension at plan time for every new literal.
		if a, _, _ := p.bestAccess(name, t, r.own, nil); a != (fullScan{}) {
			continue
		}
		if r.keys = p.resolveKeys(r); r.keys == nil {
			continue
		}
		used[j.c] = true
		dims = append(dims, r)
		byAlias[name] = r
	}
	if len(dims) == 0 {
		return conjuncts, order
	}

	// Conjuncts over exactly two dimensions become pair sets.
	var pairs []*pairResolution
	for _, c := range conjuncts {
		if len(c.localRef) != 2 || used[c] {
			continue
		}
		var ab [2]*resolution
		n := 0
		for _, r := range dims {
			if c.localRef[r.alias] && n < 2 {
				ab[n] = r
				n++
			}
		}
		// With no conjunct of its own on either side the pair set would be
		// the join itself, evaluated over both key columns at plan time.
		if n != 2 || len(ab[0].own)+len(ab[1].own) == 0 || !refsOnlyPair(c.expr, ab[0].alias, ab[1].alias) {
			continue
		}
		pr := p.resolvePairs(ab[0], ab[1], c)
		if pr == nil {
			continue
		}
		ab[0].paired, ab[1].paired = true, true
		c.done = true
		c.note(pr.cond)
		pr.index = len(pairs)
		pairs = append(pairs, pr)
	}

	// Whatever else mentions a dimension keeps it in the plan.
	keptBy := map[string]string{}
	for _, k := range sel.OrderBy {
		for name := range p.localRefs(k.Expr, local) {
			keptBy[name] = "ordering key " + k.Expr.String()
		}
	}
	for _, col := range sel.Cols {
		for name := range p.localRefs(col.Expr, local) {
			keptBy[name] = "projection " + col.Expr.String()
		}
	}
	var tests []*conjunct
	for _, r := range dims {
		if len(r.own) == 0 && !r.paired {
			// Nothing was resolved for it: an ordinary table again.
			delete(byAlias, r.alias)
			continue
		}
		r.keptBy = keptBy[r.alias]
		for _, c := range conjuncts {
			if r.keptBy != "" {
				break
			}
			if c.done || c == r.join || !c.localRef[r.alias] || r.owns(c) {
				continue
			}
			r.keptBy = "conjunct " + c.expr.String()
		}
		if r.eliminated = r.keptBy == ""; r.eliminated {
			r.join.done = true
			r.join.note(r.joinExpr())
			for i, c := range r.own {
				c.done = true
				c.note(r.ownCE[i])
			}
		}
		r.index = len(plan.resolved)
		plan.resolved = append(plan.resolved, r)
		if len(r.own) > 0 {
			// A dimension without conjuncts of its own selects every key;
			// its pair tests already imply membership.
			tests = append(tests, &conjunct{
				set:      keyTest(r, p.snap.stateOf(r.factT)),
				localRef: map[string]bool{r.fact: true},
			})
		}
	}
	for _, pr := range pairs {
		tests = append(tests, &conjunct{
			set:      &setTest{pair: pr},
			localRef: map[string]bool{pr.a.fact: true, pr.b.fact: true},
		})
	}
	plan.pairs = pairs
	var kept []string
	for _, name := range order {
		if r := byAlias[name]; r == nil || !r.eliminated {
			kept = append(kept, name)
		}
	}
	return append(tests, conjuncts...), kept
}

// joinExpr is the resolution's join, fact column = key column, compiled.
func (r *resolution) joinExpr() cexpr {
	return &cbin{op: sqlast.OpEq, l: &ccol{table: r.fact, pos: r.factCol}, r: &ccol{table: r.alias, pos: r.keyCol}}
}

func (r *resolution) owns(c *conjunct) bool {
	for _, o := range r.own {
		if o == c {
			return true
		}
	}
	return false
}

// memoText renders the memo address of the dimension's key set: its
// key column and the texts of its own conjuncts.
func (r *resolution) memoText() string {
	var b strings.Builder
	b.WriteString(r.table.Cols[r.keyCol].Name)
	for _, c := range r.own {
		b.WriteByte(0)
		b.WriteString(c.expr.String())
	}
	return b.String()
}

// resolveKeys returns the dimension's key set, from its state's memo
// or by running its own conjuncts over the pinned rows. A conjunct
// that fails to compile or to evaluate on any row abandons the
// resolution (nil): the statement then plans as written and reports
// the error, if it is one, from wherever it would have.
func (p *planner) resolveKeys(r *resolution) *keySet {
	r.ownCE = make([]cexpr, len(r.own))
	for i, c := range r.own {
		ce, err := p.compile(c.expr, c.sc)
		if err != nil {
			return nil
		}
		r.ownCE[i] = ce
	}
	r.memo = r.memoText()
	k := resolveKey{text: r.memo}
	if rs, ok := r.st.memoised(k); ok {
		return rs.keys
	}
	ec := &execCtx{db: p.db}
	e := env{}
	type keyRow struct{ key, row int64 }
	var hits []keyRow
rows:
	for id, row := range r.st.rows {
		if row[r.keyCol].Kind != KInt {
			continue // NULL keys equal nothing
		}
		e[r.alias] = row
		for _, ce := range r.ownCE {
			v, err := ce.eval(ec, e)
			if err != nil {
				return nil
			}
			if !v.Truth() {
				continue rows
			}
		}
		hits = append(hits, keyRow{key: row[r.keyCol].I, row: int64(id)})
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	ks := &keySet{keys: make([]int64, len(hits)), rows: make([]int64, len(hits)), has: make(map[int64]struct{}, len(hits))}
	for i, h := range hits {
		ks.keys[i], ks.rows[i] = h.key, h.row
		ks.has[h.key] = struct{}{}
	}
	return r.st.memoise(k, resolvedSet{keys: ks}).keys
}

// resolvePairs resolves a conjunct over two resolved dimensions to its
// pair set — memoised on the first one's state — or returns nil when
// the product of the key sets exceeds maxResolvePairs or the conjunct
// fails to compile or evaluate.
func (p *planner) resolvePairs(a, b *resolution, c *conjunct) *pairResolution {
	if len(a.keys.keys)*len(b.keys.keys) > maxResolvePairs {
		return nil
	}
	cond := c.expr
	ce, err := p.compile(cond, c.sc)
	if err != nil {
		return nil
	}
	pr := &pairResolution{a: a, b: b, cond: ce}
	k := resolveKey{other: b.st, text: a.memo + "\x01" + b.memo + "\x01" + cond.String()}
	if rs, ok := a.st.memoised(k); ok {
		pr.pairs = rs.pairs
		return pr
	}
	ec := &execCtx{db: p.db}
	e := env{}
	ps := &pairSet{has: map[[2]int64]struct{}{}}
	for i, ka := range a.keys.keys {
		e[a.alias] = a.st.rows[a.keys.rows[i]]
		for j, kb := range b.keys.keys {
			e[b.alias] = b.st.rows[b.keys.rows[j]]
			v, err := ce.eval(ec, e)
			if err != nil {
				return nil
			}
			if v.Truth() {
				ps.pairs = append(ps.pairs, [2]int64{ka, kb})
				ps.has[[2]int64{ka, kb}] = struct{}{}
			}
		}
	}
	pr.pairs = a.st.memoise(k, resolvedSet{pairs: ps}).pairs
	return pr
}

// refsOnlyPair reports whether an expression reads nothing but
// qualified columns of the two named aliases and literals: no
// subqueries, no unqualified names, no enclosing scope.
func refsOnlyPair(e sqlast.Expr, a, b string) bool {
	switch x := e.(type) {
	case *sqlast.Col:
		return x.Table == a || x.Table == b
	case *sqlast.IntLit, *sqlast.FloatLit, *sqlast.StrLit, *sqlast.BytesLit, *sqlast.NullLit:
		return true
	case *sqlast.Binary:
		return refsOnlyPair(x.L, a, b) && refsOnlyPair(x.R, a, b)
	case *sqlast.Not:
		return refsOnlyPair(x.X, a, b)
	case *sqlast.Between:
		return refsOnlyPair(x.X, a, b) && refsOnlyPair(x.Lo, a, b) && refsOnlyPair(x.Hi, a, b)
	case *sqlast.IsNull:
		return refsOnlyPair(x.X, a, b)
	case *sqlast.Func:
		for _, arg := range x.Args {
			if !refsOnlyPair(arg, a, b) {
				return false
			}
		}
		return true
	}
	return false
}
