package engine

import (
	"fmt"

	"repro/internal/sqlast"
)

// Unnesting positive EXISTS (DESIGN.md §9). The translators turn every
// predicate branch into EXISTS (SELECT NULL FROM … WHERE …) and leave
// the unnesting to the RDBMS. Under SELECT DISTINCT a positive EXISTS
// that is a top-level AND-conjunct is a semi-join: the sub-select's
// FROM entries can join the select's own, its WHERE conjuncts the
// select's, and the duplicates the extra bindings produce are what
// DISTINCT removes anyway. The planner does that rewrite before it
// looks at join orders, so the join-order search may drive from an
// alias of the former sub-select, plan-time resolution (resolve.go)
// reaches the paths aliases inside it, and where the merged aliases
// end up last the executor stops them at the first match (implied.go)
// — which is what the subplan did. NOT EXISTS, EXISTS under OR or NOT,
// scalar sub-selects and selects without DISTINCT keep the subplan.
//
// The merged aliases are existential: no projected or ORDER BY
// expression can read them, because those were compiled against the
// select's own FROM before the merge. Name resolution is unchanged by
// the merge: each group keeps a scope of its own whose parent chain is
// the one the sub-select had, and its conjuncts resolve through it.

// unnestGroup is one EXISTS conjunct merged into the enclosing select.
// It doubles as the evidence exported through the plan shape.
type unnestGroup struct {
	src    *sqlast.Exists // the conjunct as the statement has it
	parent *unnestGroup   // the group whose sub-select held it, nil at the top
	sc     *scope
	// aliases are the sub-select's FROM entries under the names they
	// have in the plan.
	aliases []unnestAlias
	// members are the compiled forms of the sub-select's conjuncts,
	// collected wherever the planner placed them.
	members []cexpr
	index   int // position in selectPlan.unnested
}

// unnestAlias is one merged FROM entry. An alias declared more than
// once in the statement is renamed (was keeps the statement's name):
// the steps of one pipeline are told apart by alias, and two
// sub-selects that could reuse a name while nested may not once they
// are steps of one pipeline.
type unnestAlias struct {
	name, was string
	table     *Table
}

// note records the compiled form of a conjunct with the group it is a
// member of.
func (c *conjunct) note(ce cexpr) {
	if c.group != nil {
		c.group.members = append(c.group.members, ce)
	}
}

// flattenAnd appends the AND-conjuncts of e to out.
func flattenAnd(e sqlast.Expr, out []sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return flattenAnd(b.R, flattenAnd(b.L, out))
	}
	return append(out, e)
}

// unnestExists replaces every positive EXISTS conjunct it can by the
// sub-select's own conjuncts — recursively: a member that is itself a
// positive EXISTS is revisited — adding the sub-select's aliases to
// local and order.
func (p *planner) unnestExists(plan *selectPlan, sel *sqlast.Select, conjuncts []*conjunct, local map[string]*Table, order []string) ([]*conjunct, []string) {
	var declared map[string]int
	for i := 0; i < len(conjuncts); i++ {
		c := conjuncts[i]
		x, ok := c.expr.(*sqlast.Exists)
		if !ok || x.Negate {
			continue
		}
		if declared == nil {
			declared = map[string]int{}
			declareAliases(sel, declared)
		}
		g, exprs := p.unnest(x, c, declared)
		if g == nil {
			continue
		}
		// Where a rename up the chain copied the conjunct, the evidence
		// still names the statement's own.
		if c.orig != nil {
			g.src = c.orig.(*sqlast.Exists)
		}
		origs := flattenAnd(g.src.Select.Where, nil)
		g.index = len(plan.unnested)
		plan.unnested = append(plan.unnested, g)
		for _, a := range g.aliases {
			local[a.name] = a.table
			order = append(order, a.name)
			if p.touched != nil {
				p.touched[a.table] = true
			}
		}
		members := make([]*conjunct, len(exprs), len(exprs)+len(conjuncts)-i-1)
		for k, e := range exprs {
			members[k] = &conjunct{expr: e, localRef: p.localRefs(e, local), sc: g.sc, group: g}
			if e != origs[k] {
				members[k].orig = origs[k]
			}
		}
		conjuncts = append(conjuncts[:i], append(members, conjuncts[i+1:]...)...)
		i--
	}
	return conjuncts, order
}

// unnest builds the group of one positive EXISTS conjunct and returns
// it with the sub-select's conjuncts, or nil where the sub-select keeps
// its subplan: it has a DISTINCT, ORDER BY or aggregate of its own or
// no FROM, it projects anything but literals and qualified columns, or
// anything about its names is off — an unknown table, a projected
// column that does not resolve, an alias that shadows an enclosing one.
// The subplan path then reports the error, if it is one.
func (p *planner) unnest(x *sqlast.Exists, c *conjunct, declared map[string]int) (*unnestGroup, []sqlast.Expr) {
	body := x.Select
	if body.Distinct || len(body.OrderBy) > 0 || len(body.From) == 0 {
		return nil, nil
	}
	g := &unnestGroup{src: x, parent: c.group, sc: newScope(c.sc)}
	var renamed map[string]string
	for _, ref := range body.From {
		t := p.snap.table(ref.Table)
		name := ref.Name()
		if t == nil || c.sc.binds(name) {
			return nil, nil
		}
		a := unnestAlias{name: name, was: name, table: t}
		if declared[name] > 1 {
			// Declared again elsewhere in the statement. Inside this very
			// sub-select that is a shadowing error; anywhere else the two
			// never met while this one was nested, and now could.
			if body.Where != nil && declaresAlias(body.Where, name) {
				return nil, nil
			}
			for k := 2; ; k++ {
				if a.name = fmt.Sprintf("%s_%d", name, k); declared[a.name] == 0 {
					break
				}
			}
			if renamed == nil {
				renamed = map[string]string{}
			}
			renamed[name] = a.name
		}
		if g.sc.add(a.name, t, p.newSlot()) != nil {
			return nil, nil
		}
		g.aliases = append(g.aliases, a)
	}
	for _, col := range body.Cols {
		switch e := renameAliases(col.Expr, renamed).(type) {
		case *sqlast.IntLit, *sqlast.FloatLit, *sqlast.StrLit, *sqlast.BytesLit, *sqlast.NullLit:
		case *sqlast.Col:
			if _, _, _, err := g.sc.resolve(e); err != nil || e.Table == "" {
				return nil, nil
			}
		default:
			return nil, nil
		}
	}
	for _, a := range g.aliases {
		if a.name != a.was {
			declared[a.name]++
		}
	}
	exprs := flattenAnd(body.Where, nil)
	for i, e := range exprs {
		exprs[i] = renameAliases(e, renamed)
	}
	return g, exprs
}

// slotOf returns the env slot of a FROM entry of the select, whose own
// scope is sc: one of its own or of an EXISTS unnested into it.
func (plan *selectPlan) slotOf(sc *scope, name string) int {
	if slot, ok := sc.slot(name); ok {
		return slot
	}
	for _, g := range plan.unnested {
		if slot, ok := g.sc.slots[name]; ok {
			return slot
		}
	}
	panic("engine: internal: alias " + name + " has no slot")
}

// binds reports whether the scope chain binds the name.
func (s *scope) binds(name string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.tables[name]; ok {
			return true
		}
	}
	return false
}

// eachSubselect calls fn for every sub-select directly inside e (not
// the ones nested in those).
func eachSubselect(e sqlast.Expr, fn func(*sqlast.Select)) {
	switch x := e.(type) {
	case *sqlast.Binary:
		eachSubselect(x.L, fn)
		eachSubselect(x.R, fn)
	case *sqlast.Not:
		eachSubselect(x.X, fn)
	case *sqlast.Between:
		eachSubselect(x.X, fn)
		eachSubselect(x.Lo, fn)
		eachSubselect(x.Hi, fn)
	case *sqlast.IsNull:
		eachSubselect(x.X, fn)
	case *sqlast.Func:
		for _, a := range x.Args {
			eachSubselect(a, fn)
		}
	case *sqlast.Exists:
		fn(x.Select)
	case *sqlast.Subquery:
		fn(x.Select)
	}
}

// hasSubselect reports whether e holds a sub-select.
func hasSubselect(e sqlast.Expr) bool {
	found := false
	eachSubselect(e, func(*sqlast.Select) { found = true })
	return found
}

// declareAliases counts, per name, the FROM entries of the select and
// of every sub-select nested in it.
func declareAliases(sel *sqlast.Select, into map[string]int) {
	for _, ref := range sel.From {
		into[ref.Name()]++
	}
	visit := func(s *sqlast.Select) { declareAliases(s, into) }
	for _, col := range sel.Cols {
		eachSubselect(col.Expr, visit)
	}
	if sel.Where != nil {
		eachSubselect(sel.Where, visit)
	}
	for _, k := range sel.OrderBy {
		eachSubselect(k.Expr, visit)
	}
}

// declaresAlias reports whether a sub-select nested anywhere in e
// declares the name.
func declaresAlias(e sqlast.Expr, name string) bool {
	found := false
	eachSubselect(e, func(s *sqlast.Select) {
		n := map[string]int{}
		declareAliases(s, n)
		found = found || n[name] > 0
	})
	return found
}

// renameAliases returns e with every column qualified by a renamed
// alias requalified, sub-selects included (none of them can declare
// the old name: unnest checked). What holds no such column is shared
// with e; with nothing to rename it returns e itself.
func renameAliases(e sqlast.Expr, renamed map[string]string) sqlast.Expr {
	if len(renamed) == 0 {
		return e
	}
	return sqlast.MapLeaves(e, func(leaf sqlast.Expr) sqlast.Expr {
		if c, ok := leaf.(*sqlast.Col); ok {
			if to, ok := renamed[c.Table]; ok {
				return &sqlast.Col{Table: to, Column: c.Column}
			}
		}
		return leaf
	})
}
