package plancheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// The mutation harness proves the checker is not vacuous: each
// mutation simulates a distinct planner or lowering defect by
// corrupting a freshly extracted plan shape (or forging an omission
// trace), and the checker must reject every one with a
// counterexample.

// Mutation is one seeded defect. Apply corrupts the shape in place
// and reports whether the defect was applicable to this plan.
type Mutation struct {
	Name   string
	Defect string // the planner bug the mutation simulates
	Apply  func(*engine.StmtShape) bool
	// ApplyTo is Apply for a defect that is about a part of the
	// statement the plan shape does not name; exactly one of the two is
	// set.
	ApplyTo func(*engine.StmtShape, sqlast.Statement) bool
}

// MutationResult records one mutation run.
type MutationResult struct {
	Name     string
	Applied  bool
	Rejected bool
	// Finding is the first counterexample the checker produced, Rules
	// the obligations all of them name.
	Finding string
	Rules   []string
}

// firstSelect returns the shape's select block (first union branch
// for unions).
func firstSelect(sh *engine.StmtShape) *engine.SelectShape {
	if sh.Select != nil {
		return sh.Select
	}
	if sh.Union != nil && len(sh.Union.Branches) > 0 {
		return sh.Union.Branches[0]
	}
	return nil
}

// Mutations returns the seeded defects, each distinct in the rule it
// must trip.
func Mutations() []Mutation {
	return []Mutation{
		{
			Name:   "swap-join-bounds",
			Defect: "bad Table 2 join condition: BETWEEN bounds swapped",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				for si := range sel.Steps {
					for fi, f := range sel.Steps[si].Filters {
						if b, ok := f.Expr.(*sqlast.Between); ok {
							sel.Steps[si].Filters[fi].Expr = &sqlast.Between{X: b.X, Lo: b.Hi, Hi: b.Lo}
							return true
						}
					}
				}
				return false
			},
		},
		{
			Name:   "drop-predicate",
			Defect: "planner silently drops a WHERE conjunct",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				for si := range sel.Steps {
					fs := sel.Steps[si].Filters
					if len(fs) > 0 {
						sel.Steps[si].Filters = fs[:len(fs)-1]
						return true
					}
				}
				if len(sel.PreFilters) > 0 {
					sel.PreFilters = sel.PreFilters[:len(sel.PreFilters)-1]
					return true
				}
				return false
			},
		},
		{
			Name:   "wrong-access-path",
			Defect: "access path not justified by any predicate or index",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil || len(sel.Steps) == 0 {
					return false
				}
				s := &sel.Steps[len(sel.Steps)-1]
				s.Access = engine.AccessShape{
					Kind:      "index-eq",
					Index:     "phantom_idx",
					IndexCols: []string{"no_such_col"},
					Col:       "no_such_col",
					Keys:      []engine.ExprShape{{Expr: sqlast.Int(42)}},
				}
				return true
			},
		},
		{
			Name:   "hash-restricted-by-untested-key-set",
			Defect: "a hash join is built over the rows of a key set its step does not test",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateBuiltOver(sh, hashKinds, scopeUntestedKeySet)
			},
		},
		{
			Name:   "hash-restricted-on-other-column",
			Defect: "a hash join is built over the rows whose other column holds a key of the step's key set",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateBuiltOver(sh, hashKinds, scopeOtherColumn)
			},
		},
		{
			Name:   "dewey-scoped-by-untested-key-set",
			Defect: "a Dewey step runs over the rows of a key set its step does not test",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateBuiltOver(sh, deweyKinds, scopeUntestedKeySet)
			},
		},
		{
			Name:   "dewey-scoped-on-other-column",
			Defect: "a Dewey step runs over the rows whose other column holds a key of the step's key set",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateBuiltOver(sh, deweyKinds, scopeOtherColumn)
			},
		},
		{
			Name:   "misplace-distinct",
			Defect: "DISTINCT dropped from (or invented in) the lowered pipeline",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				for i, tok := range sel.Pipeline {
					if tok == "distinct" {
						sel.Pipeline = append(sel.Pipeline[:i], sel.Pipeline[i+1:]...)
						return true
					}
				}
				sel.Pipeline = append(sel.Pipeline, "distinct")
				return true
			},
		},
		{
			Name:   "forge-est-source",
			Defect: "planner reports a cardinality estimate with unknown provenance",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil || len(sel.Steps) == 0 {
					return false
				}
				// On the steps in turn: a made-up provenance, and "override",
				// an observed cardinality, which the planner never injects.
				forged := []string{"hunch", "override"}
				for i := range sel.Steps {
					sel.Steps[i].EstSource = forged[i%len(forged)]
				}
				return true
			},
		},
		{
			Name:   "smuggle-filter-as-omission",
			Defect: "planner drops a live filter claiming a synopsis proof with fabricated evidence",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				// Prefer a step that keeps another filter so the
				// conjunct multiset and pipeline stay balanced and only
				// the omission re-proof can catch the forgery.
				best := -1
				for si := range sel.Steps {
					if n := len(sel.Steps[si].Filters); n >= 2 || (n == 1 && best < 0) {
						best = si
						if n >= 2 {
							break
						}
					}
				}
				if best < 0 {
					return false
				}
				s := &sel.Steps[best]
				last := len(s.Filters) - 1
				s.Omitted = append(s.Omitted, engine.OmittedShape{
					Pred:   s.Filters[last],
					Reason: "not-null",
					Rows:   1 << 60, // fabricated: no synopsis counts this many rows
				})
				s.Filters = s.Filters[:last]
				return true
			},
		},
		{
			Name:   "corrupt-omission-evidence",
			Defect: "omission evidence disagrees with the synopsis it cites",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				for si := range sel.Steps {
					if len(sel.Steps[si].Omitted) > 0 {
						sel.Steps[si].Omitted[0].Rows++
						return true
					}
				}
				return false
			},
		},
		{
			Name:   "drop-resolved-key",
			Defect: "plan-time key set misses a path the pattern matches",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					for i := range sel.Resolved {
						if keys := sel.Resolved[i].Keys; len(keys) > 0 {
							sel.Resolved[i].Keys = keys[1:]
							return true
						}
					}
					return false
				})
			},
		},
		{
			Name:   "add-resolved-key",
			Defect: "plan-time key set holds a path the pattern does not match",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					for i := range sel.Resolved {
						keys := sel.Resolved[i].Keys
						// The smallest positive id outside the set: another
						// path's id, or no path's.
						extra, at := int64(1), 0
						for at < len(keys) && keys[at] <= extra {
							if keys[at] == extra {
								extra++
							}
							at++
						}
						grown := append(append(append([]int64(nil), keys[:at]...), extra), keys[at:]...)
						sel.Resolved[i].Keys = grown
						return true
					}
					return false
				})
			},
		},
		{
			Name:   "corrupt-pair-set",
			Defect: "plan-time pair set admits a pair of paths the recursion guard rejects",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					for j := range sel.Pairs {
						pr := &sel.Pairs[j]
						if len(pr.Pairs) > 0 {
							pr.Pairs = pr.Pairs[:len(pr.Pairs)-1]
							return true
						}
						a, b := sel.Resolved[pr.A].Keys, sel.Resolved[pr.B].Keys
						if len(a) > 0 && len(b) > 0 {
							pr.Pairs = [][2]int64{{a[0], b[0]}}
							return true
						}
					}
					return false
				})
			},
		},
		{
			Name:   "eliminate-referenced-alias",
			Defect: "planner drops a resolved alias from the plan although something still reads it",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					for i := range sel.Resolved {
						r := &sel.Resolved[i]
						if r.Eliminated {
							continue
						}
						for si, s := range sel.Steps {
							if s.Alias != r.Alias {
								continue
							}
							sel.Steps = append(sel.Steps[:si:si], sel.Steps[si+1:]...)
							var pipeline []string
							for _, tok := range sel.Pipeline {
								if tok != "scan "+r.Alias && tok != "filter "+r.Alias {
									pipeline = append(pipeline, tok)
								}
							}
							sel.Pipeline = pipeline
							r.Eliminated = true
							return true
						}
					}
					return false
				})
			},
		},
		{
			Name:   "drop-needed-distinct",
			Defect: "lowering drops DISTINCT claiming a key that does not make the rows duplicate-free",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					if len(sel.Cols) == 0 || !dropToken(sel, "distinct") {
						return false
					}
					// The key it claims is the first projected column — of
					// whichever alias that is.
					alias, col := sel.Steps[0].Alias, "id"
					if c, ok := sel.Cols[0].Expr.(*sqlast.Col); ok {
						alias, col = c.Table, c.Column
					}
					sel.Unique = &engine.UniqueShape{Alias: alias, Col: col, Index: "forged"}
					sel.FirstMatchFrom = 0
					if len(sel.Steps) > 1 {
						sel.FirstMatchFrom = 1
					}
					return true
				})
			},
		},
		{
			Name:   "drop-needed-sort",
			Defect: "lowering drops ORDER BY claiming the rows already arrive in that order",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					if len(sel.OrderBy) == 0 || !dropToken(sel, "sort") {
						return false
					}
					alias, col := sel.Steps[0].Alias, "id"
					if c, ok := sel.OrderBy[0].Key.Expr.(*sqlast.Col); ok {
						alias, col = c.Table, c.Column
					}
					sel.RowOrder = &engine.RowOrderShape{Alias: alias, Col: col}
					return true
				})
			},
		},
		{
			Name:   "first-match-on-projected-alias",
			Defect: "executor stops a step at its first match although the projection reads that step's alias",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					if sel.Unique != nil || len(sel.Steps) < 2 || !readsLaterStep(sel) || !dropToken(sel, "distinct") {
						return false
					}
					sel.Unique = &engine.UniqueShape{Alias: sel.Steps[0].Alias, Col: "id", Index: "forged"}
					sel.FirstMatchFrom = 1
					return true
				})
			},
		},
		{
			Name:   "concatenated-key-probe-claimed-ordered",
			Defect: "order claimed of a driving key probe that concatenates its posting lists",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					if sel.RowOrder == nil || sel.RowOrder.Index != "" || len(sel.Steps) == 0 {
						return false
					}
					if a := &sel.Steps[0].Access; a.Kind == "key-probe" && a.Merged {
						a.Merged = false
						return true
					}
					return false
				})
			},
		},
		{
			Name:   "union-merge-of-unordered-branch",
			Defect: "UNION merges its branches although one of them is not proven ordered",
			Apply: func(sh *engine.StmtShape) bool {
				u := sh.Union
				if u == nil || len(u.OrderPos) == 0 || len(u.Branches) == 0 {
					return false
				}
				if u.Merge {
					u.Branches[len(u.Branches)-1].RowOrder = nil
				} else {
					u.Merge, u.Sort = true, false
				}
				return true
			},
		},
		{
			Name:   "unnest-under-not",
			Defect: "planner merges a NOT EXISTS into the select as if it were a semi-join",
			ApplyTo: func(sh *engine.StmtShape, st sqlast.Statement) bool {
				return forgeUnnest(sh, st, func(where sqlast.Expr) *sqlast.Exists {
					for _, c := range flattenConjuncts(where) {
						if x, ok := c.(*sqlast.Exists); ok && x.Negate {
							return x
						}
					}
					return nil
				})
			},
		},
		{
			Name:   "unnest-under-or",
			Defect: "planner merges an EXISTS that is one side of an OR: the rows the other side admits are lost",
			ApplyTo: func(sh *engine.StmtShape, st sqlast.Statement) bool {
				return forgeUnnest(sh, st, func(where sqlast.Expr) *sqlast.Exists {
					for _, c := range flattenConjuncts(where) {
						if b, ok := c.(*sqlast.Binary); ok && b.Op == sqlast.OpOr {
							for _, d := range flattenChain(b, sqlast.OpOr) {
								if x, ok := d.(*sqlast.Exists); ok && !x.Negate {
									return x
								}
							}
						}
					}
					return nil
				})
			},
		},
		{
			Name:   "unnest-in-bag-select",
			Defect: "planner merges an EXISTS into a select without DISTINCT: every extra match is an extra row",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil || len(sel.Unnested) == 0 {
					return false
				}
				sel.Distinct = false
				dropToken(sel, "distinct")
				return true
			},
		},
		{
			Name:   "project-existential-alias",
			Defect: "projection reads an alias that came out of an unnested EXISTS",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil || len(sel.Unnested) == 0 || len(sel.Cols) == 0 {
					return false
				}
				alias := sel.Unnested[0].Aliases[0].Alias
				sel.Cols[0] = engine.ExprShape{Expr: sqlast.C(alias, "id"), Refs: []string{alias}}
				return true
			},
		},
		{
			Name:   "first-match-run-referenced-later",
			Defect: "executor stops an existential step at its first match although a later step binds a result alias under it",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil || sel.Unique != nil {
					return false
				}
				existential := existentialAliases(sel)
				for i := 1; i+1 < len(sel.Steps); i++ {
					if existential[sel.Steps[i].Alias] && !existential[sel.Steps[len(sel.Steps)-1].Alias] {
						sel.FirstMatchFrom = i
						return true
					}
				}
				return false
			},
		},
		{
			Name:   "dropped-member-conjunct",
			Defect: "planner loses a conjunct of the sub-select it merged",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				for _, g := range sel.Unnested {
					for _, m := range g.Members {
						for si := range sel.Steps {
							fs := sel.Steps[si].Filters
							for fi, f := range fs {
								// A member the access path rests on would trip
								// the access obligation too; any other will do.
								if f.Text() != m.Text() || len(fs) < 2 || justifiesAccess(sel.Steps[si], f) {
									continue
								}
								sel.Steps[si].Filters = append(fs[:fi:fi], fs[fi+1:]...)
								return true
							}
						}
					}
				}
				return false
			},
		},
		{
			Name:   "reorder-binding",
			Defect: "join order binds a table after an expression that reads it",
			Apply: func(sh *engine.StmtShape) bool {
				sel := firstSelect(sh)
				if sel == nil {
					return false
				}
				// Swap a referencing step in front of the step it
				// reads, so its access keys or filters run before the
				// alias is bound.
				for j := range sel.Steps {
					for i := 0; i < j; i++ {
						if stepReferences(sel.Steps[j], sel.Steps[i].Alias) {
							sel.Steps[i], sel.Steps[j] = sel.Steps[j], sel.Steps[i]
							pi, pj := pipelinePos(sel.Pipeline, sel.Steps[j].Alias), pipelinePos(sel.Pipeline, sel.Steps[i].Alias)
							if pi >= 0 && pj >= 0 {
								sel.Pipeline[pi], sel.Pipeline[pj] = sel.Pipeline[pj], sel.Pipeline[pi]
							}
							return true
						}
					}
				}
				return false
			},
		},
		// The slot mutants apply to plans of statements with parameter
		// slots; each treats a slot as the literal it was compiled with.
		{
			Name:   "omit-by-peeked-value",
			Defect: "a filter that reads a slot is proven redundant from the value the plan was compiled with",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					si, fi := slotFilter(sel)
					if si < 0 {
						return false
					}
					s := &sel.Steps[si]
					s.Omitted = append(s.Omitted, engine.OmittedShape{Pred: s.Filters[fi], Reason: "int-range"})
					s.Filters = append(s.Filters[:fi:fi], s.Filters[fi+1:]...)
					return true
				})
			},
		},
		{
			Name:   "resolve-reads-param",
			Defect: "a dimension's key set is computed at plan time from a conjunct that reads a slot",
			Apply: func(sh *engine.StmtShape) bool {
				return mutateSelect(sh, func(sel *engine.SelectShape) bool {
					si, fi := slotFilter(sel)
					if si < 0 || len(sel.Resolved) == 0 {
						return false
					}
					s := &sel.Steps[si]
					sel.Resolved[0].Conds = append(sel.Resolved[0].Conds, s.Filters[fi])
					s.Filters = append(s.Filters[:fi:fi], s.Filters[fi+1:]...)
					return true
				})
			},
		},
		{
			Name:   "slot-kind-mismatch",
			Defect: "the plan reads a slot as another kind than the statement declares",
			Apply: func(sh *engine.StmtShape) bool {
				return rewriteSlots(sh, func(p *sqlast.Param) sqlast.Expr {
					return &sqlast.Param{Slot: p.Slot, Kind: (p.Kind + 1) % 3}
				})
			},
		},
		{
			Name:   "slot-out-of-range",
			Defect: "the plan reads a slot the statement does not have",
			Apply: func(sh *engine.StmtShape) bool {
				return rewriteSlots(sh, func(p *sqlast.Param) sqlast.Expr {
					return &sqlast.Param{Slot: p.Slot + 100, Kind: p.Kind}
				})
			},
		},
		{
			Name:   "param-baked-as-literal",
			Defect: "the value a slot had when the plan was compiled stands in the plan as a literal",
			Apply: func(sh *engine.StmtShape) bool {
				return rewriteSlots(sh, func(p *sqlast.Param) sqlast.Expr {
					if p.Kind == sqlast.ParamText {
						return sqlast.Str("compile-time value")
					}
					return sqlast.Int(42)
				})
			},
		},
	}
}

// slotFilter finds a step filter of the select that reads a parameter
// slot: its step and position, -1 without one.
func slotFilter(sel *engine.SelectShape) (step, filter int) {
	for si, s := range sel.Steps {
		for fi, f := range s.Filters {
			if sqlast.HasParam(f.Expr) {
				return si, fi
			}
		}
	}
	return -1, -1
}

// rewriteSlots replaces every slot the steps of the plan read — filters
// and access keys, every select — by what to makes of it, reporting
// whether there was one.
func rewriteSlots(sh *engine.StmtShape, to func(*sqlast.Param) sqlast.Expr) bool {
	found := false
	rewrite := func(es *engine.ExprShape) {
		es.Expr = sqlast.MapLeaves(es.Expr, func(leaf sqlast.Expr) sqlast.Expr {
			if p, ok := leaf.(*sqlast.Param); ok {
				found = true
				return to(p)
			}
			return leaf
		})
	}
	mutateSelect(sh, func(sel *engine.SelectShape) bool {
		for si := range sel.Steps {
			s := &sel.Steps[si]
			for fi := range s.Filters {
				rewrite(&s.Filters[fi])
			}
			for ki := range s.Access.Keys {
				rewrite(&s.Access.Keys[ki])
			}
			rewrite(&s.Access.Key)
			rewrite(&s.Access.Lo)
			rewrite(&s.Access.Hi)
		}
		return false // visit every select
	})
	return found
}

// forgeUnnest simulates the planner merging an EXISTS it must leave
// alone: pick chooses it among the statement's WHERE conjuncts, and the
// first select's shape gains the evidence of a merge — the group, its
// aliases — that a planner with that defect would export.
func forgeUnnest(sh *engine.StmtShape, st sqlast.Statement, pick func(where sqlast.Expr) *sqlast.Exists) bool {
	sel := firstSelect(sh)
	var from *sqlast.Select
	switch s := st.(type) {
	case *sqlast.Select:
		from = s
	case *sqlast.Union:
		if len(s.Selects) > 0 {
			from = s.Selects[0]
		}
	}
	if sel == nil || from == nil || !sel.Distinct || sel.CountStar {
		return false
	}
	x := pick(from.Where)
	if x == nil || len(x.Select.From) == 0 {
		return false
	}
	g := engine.UnnestShape{Source: x, Parent: -1}
	for _, ref := range x.Select.From {
		g.Aliases = append(g.Aliases, engine.UnnestAlias{Alias: ref.Name(), Was: ref.Name(), Table: ref.Table})
	}
	sel.Unnested = append(sel.Unnested, g)
	return true
}

// justifiesAccess reports whether the step's access path is read off
// the filter: the step's access obligation would miss it.
func justifiesAccess(s engine.StepShape, f engine.ExprShape) bool {
	without := s
	without.Filters = nil
	for _, o := range s.Filters {
		if o.Text() != f.Text() {
			without.Filters = append(without.Filters, o)
		}
	}
	return checkAccess(s) == nil && checkAccess(without) != nil
}

// mutateSelect applies f to the first select of the statement —
// branches, then subplans, depth first — it applies to.
func mutateSelect(sh *engine.StmtShape, f func(*engine.SelectShape) bool) bool {
	var visit func(sel *engine.SelectShape) bool
	visit = func(sel *engine.SelectShape) bool {
		if f(sel) {
			return true
		}
		for _, sp := range sel.Subplans {
			if visit(sp.Select) {
				return true
			}
		}
		return false
	}
	if sh.Select != nil {
		return visit(sh.Select)
	}
	if sh.Union != nil {
		for _, br := range sh.Union.Branches {
			if visit(br) {
				return true
			}
		}
	}
	return false
}

// The access kinds that read a key set's rows (AccessShape.BuiltOver):
// a hash join built over them, a Dewey step run over them.
var (
	hashKinds  = map[string]bool{"hash-eq": true, "fat-hash": true}
	deweyKinds = map[string]bool{"index-prefixes": true, "index-range": true}
)

// mutateBuiltOver applies f to the first step, in mutateSelect's order,
// whose access of one of the kinds reads a key set's rows, reporting
// whether there was one.
func mutateBuiltOver(sh *engine.StmtShape, kinds map[string]bool, f func(*engine.SelectShape, *engine.StepShape)) bool {
	return mutateSelect(sh, func(sel *engine.SelectShape) bool {
		for si := range sel.Steps {
			if a := sel.Steps[si].Access; a.BuiltOver != nil && kinds[a.Kind] {
				f(sel, &sel.Steps[si])
				return true
			}
		}
		return false
	})
}

// scopeUntestedKeySet moves the rows a step's access reads to those of
// another resolution of the select the step has no key test of, or of
// none at all.
func scopeUntestedKeySet(sel *engine.SelectShape, s *engine.StepShape) {
	tested := map[int]bool{}
	for _, f := range s.Filters {
		if name, _, idx, ok := setMarker(f.Expr); ok && name == engine.MarkerKeySet {
			tested[idx] = true
		}
	}
	b := s.Access.BuiltOver
	b.Resolved = len(sel.Resolved)
	for i := range sel.Resolved {
		if !tested[i] {
			b.Resolved = i
			break
		}
	}
}

// scopeOtherColumn moves the rows a step's access reads to those whose
// other column holds a key of the step's key set.
func scopeOtherColumn(_ *engine.SelectShape, s *engine.StepShape) {
	b := s.Access.BuiltOver
	if b.Col != s.Access.Col {
		b.Col = s.Access.Col
	} else {
		b.Col = "id"
	}
}

// dropToken removes an operator from the pipeline of a select with
// steps, reporting whether it was there.
func dropToken(sel *engine.SelectShape, tok string) bool {
	for i, t := range sel.Pipeline {
		if t == tok && len(sel.Steps) > 0 {
			sel.Pipeline = append(sel.Pipeline[:i:i], sel.Pipeline[i+1:]...)
			return true
		}
	}
	return false
}

// readsLaterStep reports whether a projected column reads an alias
// bound after the driving step.
func readsLaterStep(sel *engine.SelectShape) bool {
	for _, c := range sel.Cols {
		for _, ref := range c.Refs {
			for _, s := range sel.Steps[1:] {
				if s.Alias == ref {
					return true
				}
			}
		}
	}
	return false
}

func stepReferences(s engine.StepShape, alias string) bool {
	for _, es := range accessExprs(s.Access) {
		for _, r := range es.Refs {
			if r == alias {
				return true
			}
		}
	}
	for _, f := range s.Filters {
		for _, r := range f.Refs {
			if r == alias {
				return true
			}
		}
	}
	return false
}

func pipelinePos(pipeline []string, alias string) int {
	for i, tok := range pipeline {
		if tok == "scan "+alias {
			return i
		}
	}
	return -1
}

// CheckMutations extracts st's plan shape once per mutation (args are
// the values of st's parameter slots, nil without), applies the defect,
// and runs the checker. A sound checker rejects every applied mutation.
func CheckMutations(db *engine.DB, st sqlast.Statement, args []engine.Value) ([]MutationResult, error) {
	var out []MutationResult
	for _, m := range Mutations() {
		sh, err := planShape(db, st, args)
		if err != nil {
			return nil, fmt.Errorf("extract shape for %s: %w", m.Name, err)
		}
		res := MutationResult{Name: m.Name}
		if applied := m.Apply != nil && m.Apply(sh) || m.ApplyTo != nil && m.ApplyTo(sh, st); !applied {
			out = append(out, res)
			continue
		}
		res.Applied = true
		_, fs := CheckShape(db, st, sh)
		if len(fs) > 0 {
			res.Rejected = true
			res.Finding = fs[0].String()
			for _, f := range fs {
				res.Rules = append(res.Rules, f.Rule)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// OmissionMutations forges Section 4.5 traces with unjustified
// decisions against s; the validator must reject each.
func OmissionMutations(s *schema.Schema) []MutationResult {
	var ipNode, fpNode *schema.Node
	for _, n := range s.Nodes() {
		switch n.Mark {
		case schema.InfinitePaths:
			if ipNode == nil {
				ipNode = n
			}
		case schema.FinitePaths, schema.UniquePath:
			if fpNode == nil && len(n.RootPaths) > 0 {
				fpNode = n
			}
		}
	}
	var out []MutationResult
	run := func(name string, tr core.OmissionTrace, applicable bool) {
		res := MutationResult{Name: name, Applied: applicable}
		if applicable {
			if f := ValidateOmission(tr); f != nil {
				res.Rejected = true
				res.Finding = f.String()
			}
		}
		out = append(out, res)
	}
	run("omit-on-infinite-paths", core.OmissionTrace{
		Node:     ipNode,
		Pattern:  "#.*#",
		Decision: schema.OmitFilter,
	}, ipNode != nil)
	if fpNode != nil {
		// A pattern matching no root path: omission would admit every
		// row the filter should reject.
		run("omit-without-full-match", core.OmissionTrace{
			Node:     fpNode,
			Pattern:  "#never-a-root-path#",
			Decision: schema.OmitFilter,
			Evidence: schema.OmissionEvidence{Mark: fpNode.Mark, Total: len(fpNode.RootPaths)},
		}, true)
		// Claiming emptiness while every root path matches.
		run("empty-despite-matches", core.OmissionTrace{
			Node:     fpNode,
			Pattern:  ".*",
			Decision: schema.EmptyResult,
			Evidence: schema.OmissionEvidence{Mark: fpNode.Mark, Total: len(fpNode.RootPaths), Matched: len(fpNode.RootPaths)},
		}, true)
	} else {
		run("omit-without-full-match", core.OmissionTrace{}, false)
		run("empty-despite-matches", core.OmissionTrace{}, false)
	}
	return out
}
