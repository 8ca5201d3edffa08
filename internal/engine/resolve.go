package engine

import (
	"cmp"
	"slices"
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

// resolveKey addresses one set in a dimension state's resolved memo: the
// key column and conjunct texts, and for a pair set the second
// dimension's table and the number of its rows the set was resolved
// over (nil and 0 for a key set). It names no state: a set carried to
// a successor state (tableState.carried) keeps none reachable.
type resolveKey struct {
	text   string
	other  *Table
	otherN int
}

// resolvedSet is one entry of a state's resolved memo; exactly one of
// keys and pairs is set. n is the number of the dimension's rows the
// set was resolved over, and for a pair set nb that of the second
// dimension's. A table only grows and its rows never change, so the
// set is exact for every state of the tables that holds as many rows,
// and a later state extends it over the rows appended since.
type resolvedSet struct {
	keys  *keySet
	pairs *pairSet
	n, nb int
}

// carry returns the resolved sets a successor of st starts from: st's
// resolved entries, then those st carried, at most maxResolveMemo of
// them. A pair set is carried under its key less otherN, which the
// successor's statements may see grown.
func (st *tableState) carry() map[resolveKey]resolvedSet {
	own := st.resolved.entries()
	if len(own) == 0 {
		return st.carried
	}
	out := make(map[resolveKey]resolvedSet, maxResolveMemo)
	for k, rs := range own {
		k.otherN = 0
		out[k] = rs
	}
	for k, rs := range st.carried {
		if len(out) >= maxResolveMemo {
			break
		}
		if _, ok := out[k]; !ok {
			out[k] = rs
		}
	}
	return out
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
	// factRef and keyRef read the fact column and the key column.
	factRef, keyRef ccol
	join            *conjunct
	own             []*conjunct
	// ownCE are own's compiled forms: run over the rows when the memo
	// misses, and decompiled for the exported shape.
	ownCE  []cexpr
	memo   string // memo address of keys: key column and own texts
	keys   *keySet
	paired bool // some pair conjunct over this alias was resolved
	// eliminated: nothing but join, own and resolved pair conjuncts
	// mentions the alias, so it is not a step of the plan. Otherwise
	// keptBy is the first reference that kept it.
	eliminated bool
	keptBy     keptRef
	index      int // position in selectPlan.resolved
}

// keptRef is a reference that keeps a dimension in the plan: how it
// refers ("ordering key", "projection", "conjunct") and to what. Only
// the exported shape renders it.
type keptRef struct {
	how string
	e   sqlast.Expr
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
// of its fact table: the probe access through a single-column index on
// the fact column (none without one), carrying the fact rows that pass
// the test, the sum of the fact column's histogram counts over the
// keys. Summed once per select; exact while the histogram is.
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
		return &ckeyin{col: r.factRef, res: r}
	}
	a, b := t.pair.a, t.pair.b
	return &cpairin{a: a.factRef, b: b.factRef, res: t.pair}
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
	// A heuristic planner (DB.forceHeuristic) does not look at the data
	// at all, and this rewrite is nothing but a look at the data.
	if len(order) < 2 || p.heuristic {
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
	// two aliases joined key to key, the larger is the dimension, and of
	// two the same size, the first.
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
		if t.Cols[j.col].Type != TInt || j.otherT.Cols[j.otherCol].Type != TInt || st.n > maxResolveRows {
			continue
		}
		ix := st.findIndex(j.col)
		if ix == nil || len(ix.Cols) != 1 || !ix.unique() {
			continue
		}
		// Nor is the smaller of two aliases joined key to key: a
		// relation whose few rows each hold another path_id joins its
		// paths alias so, and the dimension is the paths alias.
		if ost := p.snap.stateOf(j.otherT); ost.n > st.n {
			if oix := ost.findIndex(j.otherCol); oix != nil && len(oix.Cols) == 1 && oix.unique() {
				continue
			}
		}
		r := &resolution{alias: name, table: t, st: st, keyCol: j.col,
			fact: j.other, factT: j.otherT, factCol: j.otherCol, join: j.c,
			factRef: p.colRef(j.c.sc, j.other, j.otherT, j.otherCol), keyRef: p.colRef(j.c.sc, name, t, j.col)}
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
	keptBy := map[string]keptRef{}
	for _, k := range sel.OrderBy {
		for name := range p.localRefs(k.Expr, local) {
			keptBy[name] = keptRef{"ordering key", k.Expr}
		}
	}
	for _, col := range sel.Cols {
		for name := range p.localRefs(col.Expr, local) {
			keptBy[name] = keptRef{"projection", col.Expr}
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
			if r.keptBy.e != nil {
				break
			}
			if c.done || c == r.join || !c.localRef[r.alias] || r.owns(c) {
				continue
			}
			r.keptBy = keptRef{"conjunct", c.expr}
		}
		if r.eliminated = r.keptBy.e == nil; r.eliminated {
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
	fact, key := r.factRef, r.keyRef
	return &cbin{op: sqlast.OpEq, l: &fact, r: &key}
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

// resolveKeys returns the dimension's key set, from its state's memo,
// by extending the set a predecessor state resolved (carried) over the
// rows appended since, or by running its own conjuncts over every
// pinned row. A conjunct that fails to compile or to evaluate on any
// row abandons the resolution (nil): the statement then plans as
// written and reports the error, if it is one, from wherever it would
// have.
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
	if rs, ok := r.st.resolved.get(k); ok {
		return rs.keys
	}
	prev := r.st.carried[k]
	ec := &execCtx{db: p.db}
	e := make(env, p.slots)
	var hits []keyRow
rows:
	for id := int64(prev.n); id < int64(r.st.n); id++ {
		key, ok := r.keyRef.col.int(id)
		if !ok {
			continue // NULL keys equal nothing
		}
		e[r.keyRef.slot] = id
		for _, ce := range r.ownCE {
			v, err := ce.eval(ec, e)
			if err != nil {
				return nil
			}
			if !v.Truth() {
				continue rows
			}
		}
		hits = append(hits, keyRow{key: key, row: id})
	}
	ks := prev.keys.with(hits)
	return r.st.resolved.put(k, resolvedSet{keys: ks, n: r.st.n}).keys
}

// keyRow is a key and the id of its row.
type keyRow struct{ key, row int64 }

// with returns the key set ks (nil: the empty one) with the keys of
// hits, rows none of ks holds, added — ks itself when hits is empty.
func (ks *keySet) with(hits []keyRow) *keySet {
	if ks == nil {
		ks = &keySet{has: map[int64]struct{}{}}
	}
	if len(hits) == 0 {
		return ks
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	n := len(ks.keys) + len(hits)
	out := &keySet{keys: make([]int64, 0, n), rows: make([]int64, 0, n), has: make(map[int64]struct{}, n)}
	i := 0
	for _, h := range hits {
		for ; i < len(ks.keys) && ks.keys[i] < h.key; i++ {
			out.keys, out.rows = append(out.keys, ks.keys[i]), append(out.rows, ks.rows[i])
		}
		out.keys, out.rows = append(out.keys, h.key), append(out.rows, h.row)
	}
	out.keys, out.rows = append(out.keys, ks.keys[i:]...), append(out.rows, ks.rows[i:]...)
	for _, k := range out.keys {
		out.has[k] = struct{}{}
	}
	return out
}

// resolvePairs resolves a conjunct over two resolved dimensions to its
// pair set — kept in the first one's resolved memo — or returns nil when
// the product of the key sets exceeds maxResolvePairs or the conjunct
// fails to compile or evaluate. A pair set a predecessor state resolved
// (carried) is extended: only pairs with a key whose row either
// dimension appended since are evaluated — new × old, old × new and
// new × new.
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
	k := resolveKey{text: a.memo + "\x01" + b.memo + "\x01" + cond.String(), other: b.table, otherN: b.st.n}
	if rs, ok := a.st.resolved.get(k); ok {
		pr.pairs = rs.pairs
		return pr
	}
	prev := a.st.carried[resolveKey{text: k.text, other: k.other}]
	var fresh []int // the positions in b's key set of rows b appended
	for j, row := range b.keys.rows {
		if row >= int64(prev.nb) {
			fresh = append(fresh, j)
		}
	}
	ec := &execCtx{db: p.db}
	e := make(env, p.slots)
	var found [][2]int64
	try := func(i, j int) bool {
		e[b.keyRef.slot] = b.keys.rows[j]
		v, err := ce.eval(ec, e)
		if err == nil && v.Truth() {
			found = append(found, [2]int64{a.keys.keys[i], b.keys.keys[j]})
		}
		return err == nil
	}
	for i, row := range a.keys.rows {
		e[a.keyRef.slot] = row
		if row >= int64(prev.n) {
			for j := range b.keys.keys {
				if !try(i, j) {
					return nil
				}
			}
			continue
		}
		for _, j := range fresh {
			if !try(i, j) {
				return nil
			}
		}
	}
	ps := prev.pairs.with(found)
	pr.pairs = a.st.resolved.put(k, resolvedSet{pairs: ps, n: a.st.n, nb: b.st.n}).pairs
	return pr
}

// with returns the pair set ps (nil: the empty one) with the pairs of
// found, none of which ps holds, added — ps itself when found is empty.
func (ps *pairSet) with(found [][2]int64) *pairSet {
	if ps == nil {
		ps = &pairSet{has: map[[2]int64]struct{}{}}
	}
	if len(found) == 0 {
		return ps
	}
	out := &pairSet{pairs: append(slices.Clone(ps.pairs), found...), has: make(map[[2]int64]struct{}, len(ps.pairs)+len(found))}
	slices.SortFunc(out.pairs, func(x, y [2]int64) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	for _, pair := range out.pairs {
		out.has[pair] = struct{}{}
	}
	return out
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
