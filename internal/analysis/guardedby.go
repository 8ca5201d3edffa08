package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
)

// GuardedBy enforces //guardedby:<mutex> field annotations
// interprocedurally: every write to an annotated field must execute
// with the named mutex in the may-held lockset, where a function's
// entry lockset is the intersection of its static callers' locksets
// at the call site (lockscope's replay extended across call edges).
// //guardedby:caller(<mutex>) marks externally serialized structs
// (wal.Log): their own methods are exempt, but every cross-package
// call to a mutating method must hold the named mutex — unless the
// receiver is provably fresh (the builder-scope exemption that keeps
// wal.Open and checkpoint construction legal). The annotations turn
// the PR 8 commit-path comments ("callers hold writeMu") into checked
// law before subtree updates multiply the writers.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "writes to //guardedby:<mutex> fields require the named mutex in the may-held " +
		"lockset on every static call path; //guardedby:caller(<mutex>) additionally " +
		"checks cross-package calls of mutating methods",
	Run: runGuardedBy,
}

// depGuards is the caller-side view of one dependency package with
// //guardedby:caller() annotations.
type depGuards struct {
	mutators map[*types.Func]string // mutating method -> required mutex name
}

func runGuardedBy(pass *Pass) error {
	ann := pass.annotations()
	for _, b := range ann.badGuarded {
		pass.Reportf(b.pos, "%s", b.msg)
	}

	var deps []depGuards
	for _, dep := range pass.depPackages() {
		da := depAnnotations(dep)
		if !hasCallerGuards(da) {
			continue
		}
		deps = append(deps, depGuards{mutators: callerMutators(depGraph(dep), da)})
	}

	if len(ann.guards) == 0 && len(deps) == 0 {
		return nil
	}

	g := pass.callGraph()
	entry := entryLocksets(pass, g)
	extern := pass.externFresh()
	fresh := g.FreshReturns(extern)

	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		locals := g.FreshLocals(n, fresh, extern)

		// Two replays over the same deterministic CFG walk: once with
		// the real entry lockset, once with the entry augmented by
		// every required name. A site unguarded under the first but
		// guarded under the second fails interprocedurally — some
		// caller chain arrives lock-free — and earns a call-path
		// witness; a site unguarded under both is the function's own
		// bug (it releases or never takes the lock locally).
		type siteCheck struct {
			site     ast.Node
			name     string
			what     string
			heldReal bool
			heldAug  bool
		}
		var checks []siteCheck
		lockReplay(pass, n.Name, n.Body, entry[n], func(node ast.Node, env lockEnv) {
			pass.guardSites(n, node, ann, deps, locals, func(site ast.Node, name, what string) {
				checks = append(checks, siteCheck{site: site, name: name, what: what,
					heldReal: lockNameHeld(env, name)})
			})
		})
		if len(checks) == 0 {
			continue
		}
		augEntry := map[string]bool{}
		for k := range entry[n] {
			augEntry[k] = true
		}
		for _, c := range checks {
			augEntry[c.name] = true
		}
		idx := 0
		lockReplay(pass, n.Name, n.Body, augEntry, func(node ast.Node, env lockEnv) {
			pass.guardSites(n, node, ann, deps, locals, func(site ast.Node, name, what string) {
				if idx < len(checks) {
					checks[idx].heldAug = lockNameHeld(env, name)
				}
				idx++
			})
		})

		for _, c := range checks {
			if c.heldReal {
				continue
			}
			if c.heldAug {
				if path := lockFreePath(g, entry, n, c.name); len(path) > 1 {
					pass.Reportf(c.site.Pos(), "%s without %s held; lock-free call path: %s",
						c.what, c.name, strings.Join(path, " -> "))
					continue
				}
			}
			pass.Reportf(c.site.Pos(), "%s without %s held", c.what, c.name)
		}
	}
	return nil
}

// guardSites invokes check for every guard-relevant site lexically
// inside node (skipping nested literals, which replay under their own
// entry locksets): writes to annotated fields, and calls to
// caller-guarded mutator methods of dependency packages.
func (pass *Pass) guardSites(owner *callgraph.Node, node ast.Node, ann *protoAnnotations,
	deps []depGuards, locals map[types.Object]bool, check func(site ast.Node, name, what string)) {

	freshBase := func(e ast.Expr) bool {
		base := chainBase(e)
		if base == nil {
			return false
		}
		obj := pass.TypesInfo.Uses[base]
		if obj == nil {
			obj = pass.TypesInfo.Defs[base]
		}
		return obj != nil && locals[obj]
	}

	checkWrite := func(lhs ast.Expr) {
		spec := pass.annotatedField(lhs, ann)
		if spec == nil {
			return
		}
		if spec.caller && methodOf(owner, spec.owner) {
			return // the struct's own methods: serialization owed by callers
		}
		if freshBase(lhs) {
			return // builder scope: the value is provably this function's own
		}
		check(lhs, spec.name, "write to "+exprText(pass.Fset, lhs)+" (field guarded by "+spec.name+")")
	}

	ast.Inspect(node, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X)
		case *ast.CallExpr:
			fun, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
			if !ok {
				return true
			}
			for _, d := range deps {
				name, isMut := d.mutators[fn]
				if !isMut {
					continue
				}
				if freshBase(fun.X) {
					continue // handle built here (wal.Open result): construction
				}
				check(x, name, "call to "+exprText(pass.Fset, fun)+" (mutates fields guarded by caller-held "+name+")")
			}
		}
		return true
	})
}

// annotatedField resolves an assignment target to the //guardedby:
// annotation of the field it writes (directly, or through an
// index/deref of the field: st.hashIdx[c] writes field hashIdx).
func (pass *Pass) annotatedField(lhs ast.Expr, ann *protoAnnotations) *guardSpec {
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
				if spec, okS := ann.guards[v]; okS {
					return spec
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// methodOf reports whether the node (or, for literals, its enclosing
// declared function) is a method of the named type.
func methodOf(n *callgraph.Node, owner *types.Named) bool {
	for ; n != nil; n = n.Parent {
		if n.Obj == nil {
			continue
		}
		sig, ok := n.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		t := sig.Recv().Type()
		if p, okP := t.(*types.Pointer); okP {
			t = p.Elem()
		}
		named, okN := t.(*types.Named)
		return okN && owner != nil && named.Obj() == owner.Obj()
	}
	return false
}

func hasCallerGuards(ann *protoAnnotations) bool {
	for _, spec := range ann.guards {
		if spec.caller {
			return true
		}
	}
	return false
}

// callerMutators computes, over a dependency package's call graph,
// the methods of caller-guarded structs that (transitively, within
// the package) write an annotated field or operate on one (l.f.Sync):
// exactly the calls that need the caller-held mutex at cross-package
// call sites.
func callerMutators(g *callgraph.Graph, ann *protoAnnotations) map[*types.Func]string {
	guardName := func(v *types.Var) (string, *types.Named, bool) {
		if spec, ok := ann.guards[v]; ok && spec.caller {
			return spec.name, spec.owner, true
		}
		return "", nil, false
	}

	direct := map[*callgraph.Node]string{}
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		node := n
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			touch := func(e ast.Expr) {
				se, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				if v, okV := g.Info.Uses[se.Sel].(*types.Var); okV {
					if name, owner, okG := guardName(v); okG && methodOf(node, owner) {
						if _, seen := direct[node]; !seen {
							direct[node] = name
						}
					}
				}
			}
			switch x := m.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					touch(writeTarget(lhs))
				}
			case *ast.IncDecStmt:
				touch(writeTarget(x.X))
			case *ast.CallExpr:
				// A method call on an annotated field (l.f.Sync(),
				// l.f.Truncate()) mutates state the field guards.
				if fun, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					touch(fun.X)
				}
			}
			return true
		})
	}

	// Propagate up static edges within the package: a method of the
	// same struct calling a mutator is a mutator (Commit -> Append).
	mut := map[*callgraph.Node]string{}
	for n, name := range direct {
		mut[n] = name
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, e := range n.Out {
				if e.Kind != callgraph.Static {
					continue
				}
				name, ok := mut[e.Callee]
				if !ok {
					continue
				}
				if _, seen := mut[n]; !seen && n.Obj != nil && isMethod(n.Obj) {
					mut[n] = name
					changed = true
				}
			}
		}
	}

	out := map[*types.Func]string{}
	for n, name := range mut {
		if n.Obj != nil && isMethod(n.Obj) {
			out[n.Obj] = name
		}
	}
	return out
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// writeTarget strips index/slice/deref wrappers so field writes
// through them (l.buf[i] = x) resolve to the field selector.
func writeTarget(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

// lockFreePath builds the call-path witness for an entry-lockset
// failure: a chain of static calls from an unknown-context root down
// to n, preferring callers that do not guarantee the required lock.
func lockFreePath(g *callgraph.Graph, entry map[*callgraph.Node]map[string]bool, n *callgraph.Node, name string) []string {
	var path []string
	seen := map[*callgraph.Node]bool{}
	for cur := n; cur != nil && !seen[cur]; {
		seen[cur] = true
		path = append([]string{cur.Name}, path...)
		var next *callgraph.Node
		for _, e := range cur.In {
			if e.Kind != callgraph.Static || seen[e.Caller] {
				continue
			}
			if next == nil || !entry[e.Caller][name] {
				next = e.Caller
			}
		}
		cur = next
	}
	return path
}
