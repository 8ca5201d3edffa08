package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// WALOrder proves the durable-before-visible half of the PR 8 commit
// protocol as a state machine over every CFG path: a snapshot publish
// (Store on the //walorder:publish atomic.Pointer field) must be
// dominated by a WAL commit (wal.Log Commit/Sync, directly or through
// any function that performs one) on every path from the entry of
// every root function that can reach it. The requirement propagates
// down the call graph — a helper that publishes undominated makes its
// callers responsible, and a root (exported or never-called function)
// left holding the requirement is a finding with a minimal call-path
// witness. Two sanctioned cuts: //walorder:replay functions republish
// state reconstructed from already-durable records, and publishes
// through provably fresh receivers (NewDB) are construction. Inside
// internal/wal itself, the Append→Sync leg is enforced directly: no
// function may append frames without also syncing them.
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc: "snapshot publication (//walorder:publish Store) requires a dominating WAL " +
		"Commit/Sync on every call path from every root; //walorder:replay -- <reason> " +
		"marks recovery republication; wal functions appending without syncing are flagged",
	Run: runWALOrder,
}

func runWALOrder(pass *Pass) error {
	ann := pass.annotations()
	for _, b := range ann.badWAL {
		pass.Reportf(b.pos, "%s", b.msg)
	}
	if strings.HasSuffix(pass.Pkg.Path(), "internal/wal") {
		checkAppendSync(pass)
	}
	if len(ann.publishes) > 0 {
		checkPublishOrder(pass, ann)
	}
	return nil
}

// checkAppendSync flags functions of the WAL package that append
// frames but never fsync: every record a commit path appends must be
// durable before the caller publishes, so the sync belongs next to
// the append (Commit), not to the caller's goodwill. Append itself
// and //walorder:replay functions are exempt.
func checkAppendSync(pass *Pass) {
	g := pass.callGraph()
	ann := pass.annotations()
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		if n.Obj != nil {
			if n.Obj.Name() == "Append" {
				continue
			}
			if _, ok := ann.replays[n.Obj]; ok {
				continue
			}
		}
		var appendSite ast.Node
		hasSync := false
		for _, e := range n.Out {
			if e.Kind != callgraph.Static || e.Callee.Obj == nil {
				continue
			}
			switch e.Callee.Obj.Name() {
			case "Append":
				if appendSite == nil {
					appendSite = e.Site
				}
			case "Sync":
				hasSync = true
			}
		}
		// Sync may also be an extern call (os.File.Sync).
		for _, x := range n.Extern {
			if x.Callee.Name() == "Sync" {
				hasSync = true
			}
		}
		if appendSite != nil && !hasSync {
			pass.Reportf(appendSite.Pos(),
				"%s appends WAL frames but never syncs them; a commit path through it "+
					"cannot make records durable before the snapshot publish (call Sync, "+
					"or route through Commit)", n.Name)
		}
	}
}

// checkPublishOrder runs the publish-requires-durable dataflow over
// the package call graph.
func checkPublishOrder(pass *Pass, ann *protoAnnotations) {
	g := pass.callGraph()
	extern := pass.externFresh()
	fresh := g.FreshReturns(extern)

	// durable: functions that (transitively) perform a WAL commit.
	durable := map[*callgraph.Node]bool{}
	isDurableExtern := func(fn *types.Func) bool {
		if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/wal") {
			return false
		}
		return fn.Name() == "Commit" || fn.Name() == "Sync"
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if durable[n] || n.Body == nil {
				continue
			}
			for _, x := range n.Extern {
				if isDurableExtern(x.Callee) {
					durable[n] = true
					changed = true
				}
			}
			for _, e := range n.Out {
				if e.Kind == callgraph.Static && durable[e.Callee] {
					durable[n] = true
					changed = true
				}
			}
		}
	}

	replayCut := func(n *callgraph.Node) bool {
		for m := n; m != nil; m = m.Parent {
			if m.Obj != nil {
				_, ok := ann.replays[m.Obj]
				return ok
			}
		}
		return false
	}

	// need[n] != nil: some path from n's entry reaches a publish with
	// no dominating durable call; the slice is the call-path witness
	// down to the Store.
	need := map[*callgraph.Node][]string{}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Body == nil || need[n] != nil || replayCut(n) {
				continue
			}
			if w := undominatedRequirement(pass, g, n, ann, need, durable, fresh, extern); w != nil {
				need[n] = w
				changed = true
			}
		}
	}

	// Findings surface at the roots: nodes no caller can discharge.
	for _, n := range g.Nodes {
		w := need[n]
		if w == nil {
			continue
		}
		isRoot := n.Obj != nil && n.Obj.Exported()
		if !isRoot {
			hasCaller := false
			for _, e := range n.In {
				if e.Kind == callgraph.Static || e.Kind == callgraph.Escape {
					hasCaller = true
					break
				}
			}
			isRoot = !hasCaller
		}
		if !isRoot {
			continue
		}
		pos := n.Body.Pos()
		if n.Decl != nil {
			pos = n.Decl.Name.Pos()
		}
		pass.Reportf(pos,
			"snapshot publish reachable without a preceding WAL commit on path %s; "+
				"a crash between publish and fsync would lose acknowledged state "+
				"(log first, or annotate //walorder:replay with a reason)",
			strings.Join(w, " -> "))
	}
}

// undominatedRequirement checks one function: does some CFG path from
// its entry reach a requiring site (an own publish of a non-fresh
// value, or a call/escape edge into a needing callee) without passing
// a durable call first? Returns the witness chain or nil.
func undominatedRequirement(pass *Pass, g *callgraph.Graph, n *callgraph.Node,
	ann *protoAnnotations, need map[*callgraph.Node][]string,
	durable, fresh map[*callgraph.Node]bool, extern func(*types.Func) bool) []string {

	locals := g.FreshLocals(n, fresh, extern)

	// Per requiring AST site, its witness suffix.
	type reqSite struct {
		site    ast.Node
		witness []string
	}
	var reqs []reqSite
	for _, e := range n.Out {
		if e.Kind == callgraph.FuncValue || e.Kind == callgraph.Interface {
			continue // dynamic targets hold their own requirements as roots
		}
		if w := need[e.Callee]; w != nil {
			reqs = append(reqs, reqSite{site: e.Site, witness: w})
		}
	}
	ownWalkNode(n.Body, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, stored, field, isStore, okA := atomicStoreLoad(pass.TypesInfo, call)
		if !okA || !isStore || field == nil || !ann.publishes[field] {
			return
		}
		_ = stored
		// Publish through a provably fresh receiver chain (db :=
		// NewDB(); db.snap.Store(...)) is construction.
		if base := chainBase(recv); base != nil {
			obj := pass.TypesInfo.Uses[base]
			if obj == nil {
				obj = pass.TypesInfo.Defs[base]
			}
			if obj != nil && locals[obj] {
				return
			}
		}
		pos := pass.Fset.Position(call.Pos())
		reqs = append(reqs, reqSite{site: call,
			witness: []string{"snap publish at line " + itoa(pos.Line)}})
	})
	if len(reqs) == 0 {
		return nil
	}

	// Durable points and requiring sites, resolved to their CFG
	// statements.
	cg := cfg.New(n.Name, n.Body)
	durableStmt := map[ast.Node]bool{}
	siteStmt := map[ast.Node]ast.Node{} // site -> enclosing CFG node
	for _, b := range cg.Blocks {
		for _, stmt := range b.Nodes {
			ast.Inspect(stmt, func(m ast.Node) bool {
				if lit, isLit := m.(*ast.FuncLit); isLit {
					for _, r := range reqs {
						if r.site == ast.Node(lit) {
							siteStmt[r.site] = stmt
						}
					}
					return false
				}
				if call, isCall := m.(*ast.CallExpr); isCall {
					if callIsDurable(pass, g, call, durable) {
						durableStmt[stmt] = true
					}
					for _, r := range reqs {
						if r.site == ast.Node(call) {
							siteStmt[r.site] = stmt
						}
					}
				}
				return true
			})
		}
	}

	// Forward may-analysis: can a block be entered with no durable
	// call behind us, and does such a path hit a requiring statement?
	// Within a block, statements run in order, so a durable statement
	// shields everything after it.
	entered := make([]bool, len(cg.Blocks))
	entered[cg.Entry.Index] = true
	work := []*cfg.Block{cg.Entry}
	undom := map[ast.Node]bool{} // requiring CFG stmts reachable durable-free
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		clean := true
		for _, stmt := range b.Nodes {
			if clean {
				undom[stmt] = true
			}
			if durableStmt[stmt] {
				clean = false
			}
		}
		if clean {
			for _, s := range b.Succs {
				if !entered[s.Index] {
					entered[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}

	for _, r := range reqs {
		stmt, ok := siteStmt[r.site]
		if ok && undom[stmt] {
			return append([]string{n.Name}, r.witness...)
		}
	}
	return nil
}

// callIsDurable reports whether one call site performs a WAL commit:
// an extern wal Commit/Sync, or a static call to a durable function.
func callIsDurable(pass *Pass, g *callgraph.Graph, call *ast.CallExpr, durable map[*callgraph.Node]bool) bool {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
	}
	if fn == nil {
		return false
	}
	if n := g.NodeOf(fn); n != nil {
		return durable[n]
	}
	if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/wal") {
		return fn.Name() == "Commit" || fn.Name() == "Sync"
	}
	return false
}

// ownWalkNode visits body's own nodes, pruning nested literals but
// still surfacing the literal node itself (escape sites).
func ownWalkNode(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		visit(m)
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
