package plancheck

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// The params obligation (DESIGN.md §10). A statement may leave values
// open as parameter slots (sqlast.Param); its one cached plan then
// serves every binding. To the planner a slot is a value for estimates
// and opaque for facts, and this file re-derives the second half from
// the plan shape's own expressions, trusting neither the planner's
// litOf discipline nor the shape's Params summary:
//
//   - every slot the plan reads is a slot of the statement, of the
//     statement's kind, and the summary lists exactly the slots read,
//     with the kinds they are read as;
//   - nothing the plan dropped, pre-evaluated or proved something from
//     reads a slot: no omitted filter (but for the empty-table proof,
//     which does not look at the predicate's operands), no resolved
//     dimension's own conjunct and no pair conjunct — their key sets
//     were computed once, at plan time — no projected or ordering
//     expression of a select whose rows are proven duplicate-free or
//     ordered, no projection of an unnested sub-select, and no
//     index-prefixes probe value;
//   - a slot an estimate is said to have peeked at is one the plan
//     reads.
//
// An estimate may use the value a slot had when the plan was compiled;
// nothing here objects to that. A skewed first value can cost the later
// bindings time, never rows: the plan it chose serves them all (DESIGN.md
// §13, "One plan per statement").

const ruleParams = "params"

// slotUse is one slot occurrence in a plan shape.
type slotUse struct {
	p     *sqlast.Param
	where string
}

// checkParams discharges the params obligation for one statement.
func checkParams(st sqlast.Statement, sh *engine.StmtShape, cert *Certificate) []Finding {
	var fs []Finding
	fail := func(format string, args ...any) {
		fs = append(fs, Finding{SQL: sh.SQL, Rule: ruleParams, Detail: fmt.Sprintf(format, args...)})
	}

	// The statement's slots.
	declared := map[int]sqlast.ParamKind{}
	sqlast.MapStatementLeaves(st, func(leaf sqlast.Expr) sqlast.Expr {
		if p, ok := leaf.(*sqlast.Param); ok {
			if k, dup := declared[p.Slot]; dup && k != p.Kind {
				fail("the statement declares slot %s with two kinds", p)
			}
			declared[p.Slot] = p.Kind
		}
		return leaf
	})

	// The plan's, from its own expressions.
	var uses []slotUse
	var selects []*engine.SelectShape
	if sh.Select != nil {
		selects = append(selects, sh.Select)
	}
	if sh.Union != nil {
		selects = append(selects, sh.Union.Branches...)
	}
	peeked := map[int]bool{}
	for len(selects) > 0 {
		sel := selects[0]
		selects = selects[1:]
		for _, sp := range sel.Subplans {
			selects = append(selects, sp.Select)
		}
		note := func(where string, es engine.ExprShape) {
			for _, p := range sqlast.Params(es.Expr) {
				uses = append(uses, slotUse{p: p, where: where})
			}
		}
		// fact reports a slot read by something whose outcome was fixed
		// at plan time.
		fact := func(what string, es engine.ExprShape) {
			for _, p := range sqlast.Params(es.Expr) {
				fail("%s reads slot %s: it was decided once, at plan time, and the next execution binds another value", what, p)
			}
		}
		for _, f := range sel.PreFilters {
			note("prefilter", f)
		}
		for _, s := range sel.Steps {
			for _, es := range accessExprs(s.Access) {
				note("access "+s.Alias, es)
			}
			if s.Access.Kind == "index-prefixes" {
				fact(fmt.Sprintf("step %s's index-prefixes probe %s", s.Alias, s.Access.Key.Text()), s.Access.Key)
			}
			for _, f := range s.Filters {
				note("filter "+s.Alias, f)
			}
			for _, o := range s.Omitted {
				note("omitted "+s.Alias, o.Pred)
				if o.Reason != "empty-table" {
					fact(fmt.Sprintf("step %s's omitted filter %s (%s)", s.Alias, o.Pred.Text(), o.Reason), o.Pred)
				}
			}
			for _, slot := range s.EstPeeked {
				peeked[slot] = true
			}
		}
		for _, c := range sel.Cols {
			note("projection", c)
			if sel.Unique != nil || sel.RowOrder != nil {
				fact("projected expression "+c.Text()+" of a select proven duplicate-free or ordered", c)
			}
		}
		for _, o := range sel.OrderBy {
			note("order-by", o.Key)
			if sel.Unique != nil || sel.RowOrder != nil {
				fact("ordering key "+o.Key.Text()+" of a select proven duplicate-free or ordered", o.Key)
			}
		}
		for _, r := range sel.Resolved {
			note("resolved "+r.Alias, r.Join)
			for _, c := range r.Conds {
				note("resolved "+r.Alias, c)
				fact(fmt.Sprintf("resolved alias %s's conjunct %s, which selected its %d keys", r.Alias, c.Text(), len(r.Keys)), c)
			}
		}
		for _, p := range sel.Pairs {
			note("pair", p.Cond)
			fact(fmt.Sprintf("pair conjunct %s, which selected %d key pairs", p.Cond.Text(), len(p.Pairs)), p.Cond)
		}
		for k, g := range sel.Unnested {
			if g.Source == nil || g.Source.Select == nil {
				continue
			}
			for _, col := range g.Source.Select.Cols {
				if sqlast.HasParam(col.Expr) {
					fail("unnested group %d: the sub-select projects %s, which the merge does not evaluate", k, col.Expr)
				}
			}
		}
	}

	// Every use is a declared slot of the declared kind.
	read := map[int]sqlast.ParamKind{}
	for _, u := range uses {
		kind, ok := declared[u.p.Slot]
		switch {
		case !ok:
			fail("%s reads slot %s, which the statement does not have", u.where, u.p)
		case kind != u.p.Kind:
			fail("%s reads slot %d as %s, the statement declares %s", u.where, u.p.Slot+1, u.p, &sqlast.Param{Slot: u.p.Slot, Kind: kind})
		}
		read[u.p.Slot] = u.p.Kind
	}
	// A declared slot the plan reads nowhere was baked in or dropped. (A
	// slot under a conjunct the plan proved away would be one too, but
	// no proof may read a slot.)
	for slot, kind := range declared {
		if _, ok := read[slot]; !ok {
			fail("the statement's slot %s is read nowhere in the plan: its value at compile time was baked in, or its conjunct dropped", &sqlast.Param{Slot: slot, Kind: kind})
		}
	}
	// The summary is exactly that.
	listed := map[int]bool{}
	for _, ps := range sh.Params {
		listed[ps.Slot] = true
		if kind, ok := read[ps.Slot]; !ok {
			fail("the shape lists slot %d, which the plan reads nowhere", ps.Slot+1)
		} else if kind != ps.Kind {
			fail("the shape lists slot %d as %s, the plan reads it as %s", ps.Slot+1, &sqlast.Param{Slot: ps.Slot, Kind: ps.Kind}, &sqlast.Param{Slot: ps.Slot, Kind: kind})
		}
		if ps.Peeked != peeked[ps.Slot] {
			fail("the shape lists slot %d as peeked=%v, its steps' estimates say %v", ps.Slot+1, ps.Peeked, peeked[ps.Slot])
		}
	}
	for slot := range read {
		if !listed[slot] {
			fail("the plan reads slot %d, which the shape does not list", slot+1)
		}
	}
	for slot := range peeked {
		if _, ok := read[slot]; !ok {
			fail("an estimate peeked at slot %d, which the plan does not read", slot+1)
		}
	}
	if len(fs) == 0 && len(declared) > 0 {
		slots := make([]int, 0, len(declared))
		for s := range declared {
			slots = append(slots, s+1)
		}
		sort.Ints(slots)
		cert.step("params: slots %v read as declared in %d places, by no omission, resolution or proof", slots, len(uses))
	}
	return fs
}
