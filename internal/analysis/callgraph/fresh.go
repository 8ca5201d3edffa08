// Freshness summaries: which functions always return newly allocated
// memory in their first result. The COW publication protocol hinges on
// the builder-scope exemption — writes through values that a function
// provably allocated itself (db := NewDB(), next := snap.clone(),
// log := wal.Open(...)) are legal before publication — so snapfreeze,
// guardedby, and walorder all need the same "is this constructor-like"
// judgment, computed once per graph.
package callgraph

import (
	"go/ast"
	"go/types"
)

// FreshReturns computes, to a fixpoint over the package's call graph,
// the set of functions whose every return statement yields fresh
// memory in result 0: a composite literal (or its address), nil, a
// make/new allocation, a call to another fresh function, or a local
// variable all of whose assignments are such expressions. Functions
// with naked returns, no return statements, or any non-fresh return
// are excluded (conservative: not fresh).
//
// extern, when non-nil, answers freshness for out-of-package callees —
// clients pass a lookup built from the dependency package's own
// FreshReturns (wal.Open, seen from engine).
func (g *Graph) FreshReturns(extern func(*types.Func) bool) map[*Node]bool {
	fresh := map[*Node]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if fresh[n] {
				continue
			}
			if g.nodeReturnsFresh(n, fresh, extern) {
				fresh[n] = true
				changed = true
			}
		}
	}
	return fresh
}

// FreshFuncs re-keys a FreshReturns result by *types.Func for
// cross-package composition (literals, having no Obj, drop out).
func FreshFuncs(m map[*Node]bool) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for n, v := range m {
		if v && n.Obj != nil {
			out[n.Obj] = true
		}
	}
	return out
}

func (g *Graph) nodeReturnsFresh(n *Node, fresh map[*Node]bool, extern func(*types.Func) bool) bool {
	if n.Body == nil {
		return false
	}
	// Result shape: at least one result, and returns must be explicit.
	var results *ast.FieldList
	switch {
	case n.Decl != nil:
		results = n.Decl.Type.Results
	case n.Lit != nil:
		results = n.Lit.Type.Results
	}
	if results == nil || len(results.List) == 0 {
		return false
	}

	locals := g.FreshLocals(n, fresh, extern)
	sawReturn := false
	ok := true
	ownWalk(n.Body, func(m ast.Node) {
		ret, isRet := m.(*ast.ReturnStmt)
		if !isRet || !ok {
			return
		}
		sawReturn = true
		if len(ret.Results) == 0 { // naked return: named results, give up
			ok = false
			return
		}
		if !g.FreshExpr(ret.Results[0], locals, fresh, extern) {
			ok = false
		}
	})
	return ok && sawReturn
}

// FreshLocals classifies the function's own variables: a local is
// fresh iff every assignment to it (in this function's own body,
// outside nested literals) has a fresh RHS. Variables also assigned
// inside nested literals are conservatively not fresh. The analyzers
// use it for the builder-scope exemption: writes and publishes
// through provably self-allocated values are construction, not
// mutation of shared state.
func (g *Graph) FreshLocals(n *Node, fresh map[*Node]bool, extern func(*types.Func) bool) map[types.Object]bool {
	assigns := map[types.Object][]ast.Expr{}
	tainted := map[types.Object]bool{}
	record := func(lhs, rhs ast.Expr, inLit bool) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := g.Info.Defs[id]
		if obj == nil {
			obj = g.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if inLit || rhs == nil {
			tainted[obj] = true
			return
		}
		assigns[obj] = append(assigns[obj], rhs)
	}
	collect := func(root ast.Node, inLit bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			if lit, isLit := m.(*ast.FuncLit); isLit && !inLit {
				// Separate walk so captured-var assignments taint.
				ast.Inspect(lit.Body, func(mm ast.Node) bool {
					if as, isAs := mm.(*ast.AssignStmt); isAs {
						for _, lhs := range as.Lhs {
							record(lhs, nil, true)
						}
					}
					return true
				})
				return false
			}
			as, isAs := m.(*ast.AssignStmt)
			if !isAs {
				return true
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					record(as.Lhs[i], as.Rhs[i], false)
				}
			} else if len(as.Rhs) == 1 {
				// Tuple assignment: only position 0 can be fresh here
				// (constructor-with-error shape: l, err := wal.Open(...)).
				record(as.Lhs[0], as.Rhs[0], false)
				for _, lhs := range as.Lhs[1:] {
					record(lhs, nil, false)
				}
			}
			return true
		})
	}
	collect(n.Body, false)

	// Iterate locally: v := NewX(); w := v.
	out := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, rhss := range assigns {
			if out[obj] || tainted[obj] {
				continue
			}
			all := true
			for _, rhs := range rhss {
				if !g.freshExprLocals(rhs, out, fresh, extern) {
					all = false
					break
				}
			}
			if all {
				out[obj] = true
				changed = true
			}
		}
	}
	return out
}

// FreshExpr reports whether e is a freshly allocated value under the
// given local classification and function summaries.
func (g *Graph) FreshExpr(e ast.Expr, locals map[types.Object]bool, fresh map[*Node]bool, extern func(*types.Func) bool) bool {
	return g.freshExprLocals(e, locals, fresh, extern)
}

func (g *Graph) freshExprLocals(e ast.Expr, locals map[types.Object]bool, fresh map[*Node]bool, extern func(*types.Func) bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
			return true // &T{...}
		}
	case *ast.Ident:
		if x.Name == "nil" {
			return true
		}
		obj := g.Info.Uses[x]
		if obj == nil {
			obj = g.Info.Defs[x]
		}
		return obj != nil && locals[obj]
	case *ast.CallExpr:
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			if b, ok := g.Info.Uses[fun].(*types.Builtin); ok {
				return b.Name() == "make" || b.Name() == "new"
			}
			if fn, ok := g.Info.Uses[fun].(*types.Func); ok {
				return g.calleeFresh(fn, fresh, extern)
			}
		case *ast.SelectorExpr:
			if fn, ok := g.Info.Uses[fun.Sel].(*types.Func); ok {
				return g.calleeFresh(fn, fresh, extern)
			}
		case *ast.FuncLit:
			if n := g.byLit[fun]; n != nil {
				return fresh[n]
			}
		}
	}
	return false
}

func (g *Graph) calleeFresh(fn *types.Func, fresh map[*Node]bool, extern func(*types.Func) bool) bool {
	if n := g.NodeOf(fn); n != nil {
		return fresh[n]
	}
	return extern != nil && extern(fn.Origin())
}

// ownWalk visits the nodes of body that belong to the function itself,
// skipping nested function literals (which have their own graph
// nodes).
func ownWalk(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
