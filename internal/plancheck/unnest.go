package plancheck

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// The unnest obligation. The planner may merge a positive EXISTS
// conjunct of a SELECT DISTINCT into the select (engine/unnest.go): the
// sub-select's FROM entries become existential aliases — steps like any
// other — and its conjuncts filters of those steps. The shape carries
// each merged conjunct as evidence (SelectShape.Unnested) and the
// checker trusts none of it:
//
//   - the physical IR nests every group back into a sub-select — its
//     aliases out of the table list, its member conjuncts out of the
//     conjunct multiset, the EXISTS marker of what they add up to in —
//     so the normal-form comparison still sees the statement's tables
//     and conjuncts, and a member the plan lost or gained shows;
//   - the side conditions are re-derived here: the select is a
//     top-level SELECT DISTINCT and not COUNT(*); the source is a
//     positive EXISTS that is a top-level AND-conjunct of the statement's
//     WHERE (or, nested, of its parent group's sub-select), without a
//     DISTINCT, ORDER BY or aggregate of its own; the aliases are the
//     sub-select's FROM entries, each bound by the plan once; every
//     member conjunct is evaluated somewhere in the plan; and no
//     projected or ORDER BY expression reads an existential alias.
//
// That a first-match run covers only trailing existential steps is the
// implied obligation's to check (implied.go), from the same evidence.

const ruleUnnest = "unnest"

// existentialAliases collects the plan names of the aliases the shape's
// unnested groups merged into the select.
func existentialAliases(sh *engine.SelectShape) map[string]bool {
	out := map[string]bool{}
	for _, g := range sh.Unnested {
		for _, a := range g.Aliases {
			out[a.Alias] = true
		}
	}
	return out
}

// statementNames maps the plan names of the shape's renamed existential
// aliases back to the names the statement gives them, on top of the
// renames of the enclosing selects.
func statementNames(sh *engine.SelectShape, outer map[string]string) map[string]string {
	var names map[string]string
	for _, g := range sh.Unnested {
		for _, a := range g.Aliases {
			if a.Alias == a.Was {
				continue
			}
			if names == nil {
				names = make(map[string]string, len(outer)+1)
				for k, v := range outer {
					names[k] = v
				}
			}
			names[a.Alias] = a.Was
		}
	}
	if names == nil {
		return outer
	}
	return names
}

// planConjuncts lists every conjunct of the statement the plan accounts
// for, wherever it put it: prefilters, step filters (a set test stands
// for the conjuncts of its resolution, listed below), filters omitted on
// a synopsis proof, the join and conjuncts of an alias eliminated by
// plan-time resolution, and every replaced pair conjunct.
func planConjuncts(sh *engine.SelectShape) []engine.ExprShape {
	out := append([]engine.ExprShape(nil), sh.PreFilters...)
	for _, s := range sh.Steps {
		for _, f := range s.Filters {
			if _, _, _, isSet := setMarker(f.Expr); !isSet {
				out = append(out, f)
			}
		}
		for _, o := range s.Omitted {
			out = append(out, o.Pred)
		}
	}
	for _, r := range sh.Resolved {
		if r.Eliminated {
			out = append(out, r.Join)
			out = append(out, r.Conds...)
		}
	}
	for _, pr := range sh.Pairs {
		out = append(out, pr.Cond)
	}
	return out
}

// renest undoes the shape's unnesting on the physical IR under
// construction: conjuncts are the plan's (as replaceMarkers leaves
// them), tables its "alias=table" bindings.
// Groups go last to first — a nested group was merged after its parent —
// each taking its members out of the conjuncts and handing the EXISTS
// marker of the sub-select they form to its parent, or to the select. A
// member the plan does not hold is left for the obligation to report.
func renest(sh *engine.SelectShape, conjuncts []sqlast.Expr, tables []string, fps []string, names map[string]string) ([]sqlast.Expr, []string, error) {
	at := map[string][]int{} // normalized text -> positions in conjuncts still available
	for i, c := range conjuncts {
		t := normalize(c).String()
		at[t] = append(at[t], i)
	}
	taken := make([]bool, len(conjuncts))
	handed := make([][]sqlast.Expr, len(sh.Unnested)) // markers of nested groups
	for k := len(sh.Unnested) - 1; k >= 0; k-- {
		g := sh.Unnested[k]
		if g.Source == nil || g.Source.Select == nil {
			return nil, nil, fmt.Errorf("unnested group %d has no source", k)
		}
		sub := &SelIR{}
		for _, col := range g.Source.Select.Cols {
			sub.Cols = append(sub.Cols, normalize(col.Expr).String())
			name := col.Alias
			if name == "" {
				name = col.Expr.String()
			}
			sub.ColNames = append(sub.ColNames, name)
		}
		drop := map[string]bool{}
		for _, a := range g.Aliases {
			sub.Tables = append(sub.Tables, a.Was+"="+a.Table)
			drop[a.Alias+"="+a.Table] = true
		}
		sort.Strings(sub.Tables)
		members := handed[k]
		for _, m := range g.Members {
			e, err := replaceMarkers(m.Expr, fps, names)
			if err != nil {
				return nil, nil, err
			}
			members = append(members, e)
			t := normalize(e).String()
			if left := at[t]; len(left) > 0 {
				taken[left[0]] = true
				at[t] = left[1:]
			}
		}
		sub.Preds, sub.predExprs = sortPreds(members)
		marker := subplanMarker(engine.MarkerExists, "exists", sub)
		kept := tables[:0:0]
		for _, t := range tables {
			if drop[t] {
				drop[t] = false
				continue
			}
			kept = append(kept, t)
		}
		tables = kept
		switch {
		case g.Parent < 0:
			conjuncts = append(conjuncts, marker)
			taken = append(taken, false)
		case g.Parent < k:
			handed[g.Parent] = append(handed[g.Parent], marker)
		default:
			return nil, nil, fmt.Errorf("unnested group %d names group %d as its parent", k, g.Parent)
		}
	}
	out := conjuncts[:0:0]
	for i, c := range conjuncts {
		if !taken[i] {
			out = append(out, c)
		}
	}
	return out, tables, nil
}

// checkUnnest discharges the obligation for one select. sel is the
// statement's own select the shape was planned from, nil for a
// correlated subplan.
func checkUnnest(sh *engine.SelectShape, sel *sqlast.Select, loc string, cert *Certificate) []Finding {
	if len(sh.Unnested) == 0 {
		return nil
	}
	var fs []Finding
	fail := func(format string, args ...any) {
		fs = append(fs, Finding{Rule: ruleUnnest, Detail: loc + ": " + fmt.Sprintf(format, args...)})
	}
	if sel == nil {
		fail("a correlated subplan carries %d unnested EXISTS: only a top-level select may merge them", len(sh.Unnested))
		return fs
	}
	if !sh.Distinct || sh.CountStar {
		fail("EXISTS unnested into a select with distinct=%v count(*)=%v: without DISTINCT every extra binding of an existential alias is an extra row", sh.Distinct, sh.CountStar)
	}

	existential := existentialAliases(sh)
	for _, c := range sh.Cols {
		for _, ref := range c.Refs {
			if existential[ref] {
				fail("projected column %s reads the existential alias %s", c.Text(), ref)
			}
		}
	}
	for _, o := range sh.OrderBy {
		for _, ref := range o.Key.Refs {
			if existential[ref] {
				fail("ORDER BY key %s reads the existential alias %s", o.Key.Text(), ref)
			}
		}
	}

	// What the plan binds, and what it evaluates.
	tableOf := map[string]string{}
	for _, s := range sh.Steps {
		tableOf[s.Alias] = s.Table
	}
	for _, r := range sh.Resolved {
		if r.Eliminated {
			tableOf[r.Alias] = r.Table
		}
	}
	evaluated := map[string]int{}
	for _, es := range planConjuncts(sh) {
		evaluated[normalize(es.Expr).String()]++
	}
	conjunctTexts := func(where sqlast.Expr) map[string]int {
		out := map[string]int{}
		for _, c := range flattenConjuncts(where) {
			out[c.String()]++
		}
		return out
	}
	top := conjunctTexts(sel.Where)
	claimed := map[string]int{}
	nested := make([]int, len(sh.Unnested)) // groups nested directly in each group
	for k, g := range sh.Unnested {
		if g.Source == nil || g.Source.Select == nil {
			fail("unnested group %d has no source", k)
			continue
		}
		src, body := g.Source.String(), g.Source.Select
		if g.Source.Negate {
			fail("group %d unnests %s: the rows a NOT EXISTS keeps are the ones no join produces", k, src)
		}
		within := top
		switch {
		case g.Parent >= k:
			fail("group %d names group %d as its parent", k, g.Parent)
			continue
		case g.Parent >= 0:
			nested[g.Parent]++
			if p := sh.Unnested[g.Parent].Source; p != nil && p.Select != nil {
				within = conjunctTexts(p.Select.Where)
			}
		}
		if within[src] == 0 {
			fail("group %d unnests %s, which is no top-level AND-conjunct of the WHERE that holds it: under OR or NOT it does not restrict the rows by itself", k, src)
		}
		within[src]--
		if body.Distinct || len(body.OrderBy) > 0 || len(body.From) == 0 {
			fail("group %d unnests a sub-select with distinct=%v, %d ORDER BY keys and %d FROM entries", k, body.Distinct, len(body.OrderBy), len(body.From))
		}
		for _, col := range body.Cols {
			switch c := col.Expr.(type) {
			case *sqlast.IntLit, *sqlast.FloatLit, *sqlast.StrLit, *sqlast.BytesLit, *sqlast.NullLit:
			case *sqlast.Col:
				if c.Table == "" {
					fail("group %d: the sub-select projects the unqualified column %s", k, c)
				}
			default:
				fail("group %d: the sub-select projects %s, which the merge would not evaluate", k, col.Expr)
			}
		}
		if len(g.Aliases) != len(body.From) {
			fail("group %d carries %d aliases for the %d FROM entries of %s", k, len(g.Aliases), len(body.From), src)
			continue
		}
		for i, a := range g.Aliases {
			ref := body.From[i]
			if a.Was != ref.Name() || a.Table != ref.Table {
				fail("group %d alias %d is %s=%s, the sub-select's FROM entry is %s=%s", k, i, a.Was, a.Table, ref.Name(), ref.Table)
			}
			if t, ok := tableOf[a.Alias]; !ok || t != a.Table {
				fail("group %d alias %s (%s) is bound nowhere in the plan", k, a.Alias, a.Table)
			}
			if claimed[a.Alias]++; claimed[a.Alias] > 1 {
				fail("alias %s belongs to more than one unnested group", a.Alias)
			}
		}
		for _, m := range g.Members {
			t := normalize(m.Expr).String()
			if evaluated[t] == 0 {
				fail("group %d: member conjunct %s of %s is evaluated nowhere in the plan", k, m.Text(), src)
				continue
			}
			evaluated[t]--
		}
	}
	for k, g := range sh.Unnested {
		if g.Source == nil || g.Source.Select == nil {
			continue
		}
		if want := len(flattenConjuncts(g.Source.Select.Where)); len(g.Members)+nested[k] != want {
			fail("group %d carries %d member conjuncts and %d nested groups for the %d conjuncts of %s", k, len(g.Members), nested[k], want, g.Source)
		}
	}
	if len(fs) == 0 {
		cert.step("unnest %s: %d positive EXISTS conjunct(s) of a SELECT DISTINCT merged, %d existential aliases bound, every member evaluated, none projected", loc, len(sh.Unnested), len(existential))
	}
	return fs
}
