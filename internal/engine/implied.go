package engine

import "fmt"

// Properties the plan implies (DESIGN.md §9, §13). Algorithm 1 ends
// every statement SELECT DISTINCT … ORDER BY dewey_pos, and for most of
// them the rows the join pipeline emits are already duplicate-free and
// already in that order: the result relation drives the plan, its
// primary key is projected, and its rows sit in the table in document
// order. The planner proves the two properties per select from the
// pinned state, and the lowering (physplan.go) emits no distinct or
// sort operator for a property that is proven. Both proofs are exported
// with the plan shape (plantrace.go) as evidence plancheck re-derives.
// Heuristic-only planning, which may not look at the data, proves
// nothing and keeps both operators.

// keyProof shows a DISTINCT select's rows duplicate-free: every
// projected and ORDER BY expression reads only the driving alias, and
// its projected column col is unique over the pinned state (ix is
// the single-column index that says so). Each driving row then yields
// one distinct output row however many bindings the later steps find,
// so those steps are existential and the executor stops them at the
// first full match (stepRunner).
type keyProof struct {
	col int
	ix  *Index
}

// orderProof shows the emitted rows ordered by the driving alias's
// column col, ascending: the access path yields row ids ascending
// and the pinned state records that row-id order is col's order
// (tableState.ascending), or — index set — the access is a range scan
// of an index led by col. Later steps bind under one driving row at a
// time, so they cannot reorder.
type orderProof struct {
	col int
	ix  *Index
}

// existential reports whether the alias came out of an unnested EXISTS.
func (p *selectPlan) existential(alias string) bool {
	for _, g := range p.unnested {
		for _, a := range g.aliases {
			if a.name == alias {
				return true
			}
		}
	}
	return false
}

// firstMatchRun finds the first step of the plan's first-match run, 0
// when it has none. With the keyProof every step after the driving one
// is existential — one output row per driving row, whatever they bind.
// Without it the run is the trailing steps that bind existential
// aliases: what is projected reads none of them, so every full match
// under one binding of the steps before the run is the same row, which
// DISTINCT keeps once; and nothing before the run can refer to an alias
// bound after it. The run stops short of the driving step: the executor
// unwinds to the step before the run, and there has to be one.
func (p *selectPlan) firstMatchRun() int {
	n := len(p.steps)
	if p.unique != nil && n > 1 {
		return 1
	}
	if !p.distinct || p.countStar {
		return 0
	}
	k := n
	for k > 1 && p.steps[k-1].existential {
		k--
	}
	if k == n {
		return 0
	}
	return k
}

// truncated reports whether a step runs under first match: its row
// counts are the rows consumed until the match, a lower bound on the
// rows that match.
func (p *selectPlan) truncated(step int) bool { return p.firstFrom > 0 && step >= p.firstFrom }

// proveUnique derives the plan's keyProof, or nil.
func (p *selectPlan) proveUnique() *keyProof {
	if len(p.steps) == 0 {
		return nil
	}
	return p.proveUniqueBy(p.steps[0].name, p.steps[0].st)
}

// proveUniqueBy derives the keyProof the plan would have with the named
// alias, in state st, driving.
func (p *selectPlan) proveUniqueBy(name string, st *tableState) *keyProof {
	if !p.distinct || p.countStar {
		return nil
	}
	var proof *keyProof
	for _, c := range p.cols {
		if !readsOnly(c, name) {
			return nil
		}
		cc, ok := c.(*ccol)
		if !ok || proof != nil {
			continue
		}
		if ix := st.findIndex(cc.pos); ix != nil && len(ix.Cols) == 1 && ix.Tree.Len() == ix.Tree.Pairs() {
			proof = &keyProof{col: cc.pos, ix: ix}
		}
	}
	for _, k := range p.orderBy {
		if !readsOnly(k.x, name) {
			return nil
		}
	}
	return proof
}

// proveOrder derives the proof that the plan emits its rows ordered by
// key — its own single ORDER BY key, or the enclosing UNION's — or nil.
// Of a driving key-set probe it holds once the probe merges its posting
// lists, which setOrdered arranges.
func (p *selectPlan) proveOrder(key cexpr, desc bool) *orderProof {
	if desc || len(p.steps) == 0 {
		return nil
	}
	r := p.steps[0]
	cc, ok := key.(*ccol)
	if !ok || cc.table != r.name {
		return nil
	}
	switch r.table.Cols[cc.pos].Type {
	case TInt, TText, TBytes:
	default:
		return nil // floats have no one comparison class (sortkey.go)
	}
	asc := r.st.ascending
	switch a := r.access.(type) {
	case fullScan, *indexEq, *hashEq, *fatHash, *keyProbe:
	case *indexRange:
		if a.ix.Cols[0] == cc.pos {
			return &orderProof{col: cc.pos, ix: a.ix}
		}
		// Strictly ascending leading values make key order row-id order.
		if !asc[a.ix.Cols[0]] {
			return nil
		}
	default:
		return nil
	}
	if !asc[cc.pos] {
		return nil
	}
	return &orderProof{col: cc.pos}
}

// setOrdered records a proof the lowering will rely on.
func (p *selectPlan) setOrdered(proof *orderProof) {
	p.ordered = proof
	if kp, ok := p.steps[0].access.(*keyProbe); ok && proof != nil {
		kp.merged = len(kp.res.keys.keys) > 1
	}
}

// readsOnly reports whether an expression reads nothing but columns of
// the named alias and literals (no subplan: what one reads is not
// decided here).
func readsOnly(e cexpr, alias string) bool {
	switch x := e.(type) {
	case *ccol:
		return x.table == alias
	case *clit:
		return true
	case *cbin:
		return readsOnly(x.l, alias) && readsOnly(x.r, alias)
	case *cnot:
		return readsOnly(x.x, alias)
	case *cbetween:
		return readsOnly(x.x, alias) && readsOnly(x.lo, alias) && readsOnly(x.hi, alias)
	case *cisnull:
		return readsOnly(x.x, alias)
	case *cfunc:
		for _, a := range x.args {
			if !readsOnly(a, alias) {
				return false
			}
		}
		return true
	}
	return false
}

// orderLabel and keyLabel are the EXPLAIN annotations of the proofs: the
// order on the driving scan's line, the key on the projection's. They
// ride on existing lines because the operators they replace have none.
func (p *selectPlan) orderLabel() string {
	if p.ordered == nil {
		return ""
	}
	return ", rows in " + p.steps[0].table.Cols[p.ordered.col].Name + " order"
}

func (p *selectPlan) keyLabel() string {
	if p.unique == nil {
		if p.firstFrom > 0 {
			return " (first match from " + p.steps[p.firstFrom].name + ")"
		}
		return ""
	}
	r := p.steps[0]
	s := fmt.Sprintf(" (distinct by %s.%s", r.name, r.table.Cols[p.unique.col].Name)
	if p.firstFrom > 0 {
		s += ", first match"
	}
	return s + ")"
}

// proveMerge decides whether the union can merge its branches: one
// ascending order key, and every branch proven to emit its rows ordered
// by the column it projects there — all of one type, strictly ascending
// and one row per driving row, so that a branch holds each key once and
// duplicates can only be neighbours of equal key from different
// branches. The branch proofs are recorded only together: a branch has
// no sort of its own to drop.
func (u *unionPlan) proveMerge() {
	if len(u.orderPos) != 1 {
		return
	}
	proofs := make([]*orderProof, len(u.branches))
	for i, b := range u.branches {
		if b.countStar || (len(b.steps) > 1 && b.unique == nil) {
			return
		}
		proofs[i] = b.proveOrder(b.cols[u.orderPos[0]], u.orderDesc[0])
		if proofs[i] == nil || !b.steps[0].st.ascending[proofs[i].col] ||
			b.orderType(proofs[i]) != u.branches[0].orderType(proofs[0]) {
			return
		}
	}
	for i, b := range u.branches {
		b.setOrdered(proofs[i])
	}
	u.merge = true
}

func (p *selectPlan) orderType(proof *orderProof) Type { return p.steps[0].table.Cols[proof.col].Type }
