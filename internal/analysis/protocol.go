// Shared infrastructure for the publication-protocol analyzers
// (snapfreeze, guardedby, walorder): memoized per-package call graphs
// and freshness summaries, the //guardedby: and //walorder: annotation
// grammar, and lockReplay, the package's one lockset dataflow.
// lockscope runs lockReplay from an empty entry lockset; guardedby
// seeds it with the entry locksets entryLocksets derives across static
// call edges.
//
// Annotation grammar (all on struct fields unless noted):
//
//	//guardedby:<mutex>          writes to this field require the named
//	                             sibling sync.Mutex/RWMutex to be in the
//	                             may-held lockset
//	//guardedby:caller(<mutex>)  the struct is externally serialized:
//	                             its own methods are exempt, but every
//	                             cross-package call of a mutating method
//	                             must hold a mutex with this name (or a
//	                             provably fresh receiver)
//	//walorder:publish           this atomic.Pointer field is the
//	                             snapshot publication point walorder and
//	                             snapfreeze reason about
//	//walorder:replay -- <why>   (on a function's doc) the function
//	                             publishes state reconstructed from
//	                             already-durable WAL records; the
//	                             Append→Sync precondition is met by
//	                             definition
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// cgMemo caches one call graph per type-checked package, shared by the
// three protocol analyzers within a process (xvet runs them back to
// back on the same loaded package).
var cgMemo sync.Map // *types.Package -> *callgraph.Graph

func graphForPkg(path string, fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) *callgraph.Graph {
	if g, ok := cgMemo.Load(tpkg); ok {
		return g.(*callgraph.Graph)
	}
	g := callgraph.Build(path, fset, files, tpkg, info)
	cgMemo.Store(tpkg, g)
	return g
}

// callGraph returns the (memoized) call graph of the pass's package.
func (p *Pass) callGraph() *callgraph.Graph {
	return graphForPkg(p.Pkg.Path(), p.Fset, p.Files, p.Pkg, p.TypesInfo)
}

// depGraph returns the call graph of an already-loaded dependency.
func depGraph(dep *Package) *callgraph.Graph {
	return graphForPkg(dep.Path, dep.Fset, dep.Files, dep.Types, dep.Info)
}

// freshMemo caches, next to each dependency's call graph, its own
// freshness summary keyed by function: the summary depends on nothing
// but the dependency itself, so one per package serves every importer.
var freshMemo sync.Map // *types.Package -> map[*types.Func]bool

// externFresh builds the cross-package freshness oracle from the
// dependency packages' own summaries (wal.Open is fresh, seen from
// engine).
func (p *Pass) externFresh() func(*types.Func) bool {
	var maps []map[*types.Func]bool
	for _, dep := range p.depPackages() {
		m, ok := freshMemo.Load(dep.Types)
		if !ok {
			m = callgraph.FreshFuncs(depGraph(dep).FreshReturns(nil))
			freshMemo.Store(dep.Types, m)
		}
		maps = append(maps, m.(map[*types.Func]bool))
	}
	if len(maps) == 0 {
		return nil
	}
	return func(fn *types.Func) bool {
		for _, m := range maps {
			if m[fn] {
				return true
			}
		}
		return false
	}
}

// depPackages returns the module-internal (loader-resolved) direct
// imports of the pass's package, with their ASTs.
func (p *Pass) depPackages() []*Package {
	if p.pkg == nil || p.pkg.ldr == nil || p.Pkg == nil {
		return nil
	}
	var out []*Package
	for _, imp := range p.Pkg.Imports() {
		if dep := p.pkg.ldr.loaded(imp.Path()); dep != nil {
			out = append(out, dep)
		}
	}
	return out
}

// A guardSpec is one parsed //guardedby: annotation.
type guardSpec struct {
	field  *types.Var // the annotated field
	owner  *types.Named
	name   string // mutex field name that must be held
	caller bool   // caller(<name>) form: serialization owed by callers
	pos    token.Pos
}

// A badAnn is a malformed annotation, reported by the analyzer that
// owns the directive family.
type badAnn struct {
	pos token.Pos
	msg string
}

// protoAnnotations is everything the protocol analyzers read from one
// package's comments.
type protoAnnotations struct {
	guards     map[*types.Var]*guardSpec // //guardedby: fields
	publishes  map[*types.Var]bool       // //walorder:publish fields
	replays    map[*types.Func]string    // //walorder:replay funcs -> reason
	badGuarded []badAnn
	badWAL     []badAnn
}

var annMemo sync.Map // *types.Package -> *protoAnnotations

// protoAnnotationsOf parses (memoized) the protocol annotations of one
// loaded package.
func protoAnnotationsOf(fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info) *protoAnnotations {
	if a, ok := annMemo.Load(tpkg); ok {
		return a.(*protoAnnotations)
	}
	ann := collectProtoAnnotations(files, info)
	annMemo.Store(tpkg, ann)
	return ann
}

func (p *Pass) annotations() *protoAnnotations {
	return protoAnnotationsOf(p.Fset, p.Files, p.Pkg, p.TypesInfo)
}

func depAnnotations(dep *Package) *protoAnnotations {
	return protoAnnotationsOf(dep.Fset, dep.Files, dep.Types, dep.Info)
}

func collectProtoAnnotations(files []*ast.File, info *types.Info) *protoAnnotations {
	ann := &protoAnnotations{
		guards:    map[*types.Var]*guardSpec{},
		publishes: map[*types.Var]bool{},
		replays:   map[*types.Func]string{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				ann.parseFuncDirectives(d, info)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					tn, _ := info.Defs[ts.Name].(*types.TypeName)
					var named *types.Named
					if tn != nil {
						named, _ = tn.Type().(*types.Named)
					}
					ann.parseStructDirectives(st, named, info)
				}
			}
		}
	}
	return ann
}

func (ann *protoAnnotations) parseFuncDirectives(fd *ast.FuncDecl, info *types.Info) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//walorder:replay")
		if !ok {
			continue
		}
		reason := ""
		if r, okr := strings.CutPrefix(strings.TrimSpace(rest), "--"); okr {
			reason = strings.TrimSpace(r)
		}
		if reason == "" {
			ann.badWAL = append(ann.badWAL, badAnn{c.Pos(),
				"malformed //walorder:replay directive: give a reason after ` -- ` " +
					"explaining why the published state is already durable"})
			continue
		}
		if fn, okf := info.Defs[fd.Name].(*types.Func); okf {
			ann.replays[fn] = reason
		}
	}
}

func (ann *protoAnnotations) parseStructDirectives(st *ast.StructType, owner *types.Named, info *types.Info) {
	directive := func(field *ast.Field) []*ast.Comment {
		var cs []*ast.Comment
		if field.Doc != nil {
			cs = append(cs, field.Doc.List...)
		}
		if field.Comment != nil {
			cs = append(cs, field.Comment.List...)
		}
		return cs
	}
	for _, field := range st.Fields.List {
		for _, c := range directive(field) {
			switch {
			case strings.HasPrefix(c.Text, "//guardedby:"):
				ann.parseGuard(c, field, st, owner, info)
			case strings.HasPrefix(c.Text, "//walorder:publish"):
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						ann.publishes[v] = true
					}
				}
			}
		}
	}
}

func (ann *protoAnnotations) parseGuard(c *ast.Comment, field *ast.Field, st *ast.StructType, owner *types.Named, info *types.Info) {
	spec := strings.TrimSpace(strings.TrimPrefix(c.Text, "//guardedby:"))
	caller := false
	if inner, ok := strings.CutPrefix(spec, "caller("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			ann.badGuarded = append(ann.badGuarded, badAnn{c.Pos(),
				"malformed //guardedby:caller(...) directive: unbalanced parenthesis"})
			return
		}
		spec = strings.TrimSpace(inner)
		caller = true
	}
	if spec == "" || strings.ContainsAny(spec, " \t(){}") {
		ann.badGuarded = append(ann.badGuarded, badAnn{c.Pos(),
			"malformed //guardedby: directive: want //guardedby:<mutexField> or //guardedby:caller(<mutexName>)"})
		return
	}
	// The plain form must name a sibling sync.Mutex/RWMutex field;
	// caller() names a mutex owned by callers, unresolvable here.
	if !caller && !structHasMutexField(st, info, spec) {
		ann.badGuarded = append(ann.badGuarded, badAnn{c.Pos(),
			"//guardedby:" + spec + " names no sibling sync.Mutex/RWMutex field; " +
				"use //guardedby:caller(" + spec + ") if the mutex lives with the callers"})
		return
	}
	for _, name := range field.Names {
		if v, ok := info.Defs[name].(*types.Var); ok {
			ann.guards[v] = &guardSpec{field: v, owner: owner, name: spec, caller: caller, pos: c.Pos()}
		}
	}
}

func structHasMutexField(st *ast.StructType, info *types.Info, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name != name {
				continue
			}
			if v, ok := info.Defs[n].(*types.Var); ok && isMutexType(v.Type()) {
				return true
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// atomicStoreLoad classifies call as <recv>.Store(v) / <recv>.Load()
// on a sync/atomic pointer/value type, returning the receiver
// expression, the stored value (nil for Load), and the field object
// when the receiver is a field selector.
func atomicStoreLoad(info *types.Info, call *ast.CallExpr) (recv ast.Expr, stored ast.Expr, field *types.Var, isStore, ok bool) {
	fun, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, nil, nil, false, false
	}
	switch fun.Sel.Name {
	case "Store":
		isStore = true
	case "Load":
	default:
		return nil, nil, nil, false, false
	}
	sel, okS := info.Selections[fun]
	if !okS || sel.Kind() != types.MethodVal {
		return nil, nil, nil, false, false
	}
	m, okF := sel.Obj().(*types.Func)
	if !okF || m.Pkg() == nil || m.Pkg().Path() != "sync/atomic" {
		return nil, nil, nil, false, false
	}
	recv = fun.X
	if isStore && len(call.Args) == 1 {
		stored = call.Args[0]
	}
	if rs, okRS := ast.Unparen(recv).(*ast.SelectorExpr); okRS {
		if v, okV := info.Uses[rs.Sel].(*types.Var); okV {
			field = v
		}
	} else if id, okID := ast.Unparen(recv).(*ast.Ident); okID {
		if v, okV := info.Uses[id].(*types.Var); okV {
			field = v
		}
	}
	return recv, stored, field, isStore, true
}

// chainBase walks a selector/index/deref chain ("db.pers.log",
// "st.rows[i]") to its base identifier, or nil.
func chainBase(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
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

// bareLockName reduces a rendered lock key to its mutex name
// ("t.db.writeMu" -> "writeMu"; a bare "mu" is its own name).
func bareLockName(key string) string {
	return key[strings.LastIndexByte(key, '.')+1:]
}

// lockNameHeld reports whether any lock in env matches name: either an
// entry-inherited bare name or a rendered receiver chain whose last
// component is the name ("t.db.writeMu" matches "writeMu").
func lockNameHeld(env lockEnv, name string) bool {
	for k := range env {
		if bareLockName(k) == name {
			return true
		}
	}
	return false
}

// lockNames reduces a lockset to bare mutex names for propagation
// across call edges (the callee sees "writeMu held", not the caller's
// receiver spelling).
func lockNames(env lockEnv) map[string]bool {
	out := map[string]bool{}
	for k := range env {
		out[bareLockName(k)] = true
	}
	return out
}

// lockReplay runs the may-held lockset dataflow over one function body
// seeded with an entry lockset (bare mutex names; nil for none), then
// replays each block calling visit with every node and the lockset in
// force when it executes.
func lockReplay(pass *Pass, name string, body *ast.BlockStmt, entry map[string]bool, visit func(n ast.Node, env lockEnv)) {
	g := cfg.New(name, body)
	n := len(g.Blocks)
	in := make([]lockEnv, n)
	out := make([]lockEnv, n)
	seed := lockEnv{}
	for k := range entry {
		seed[k] = true
	}
	in[g.Entry.Index] = seed
	work := []*cfg.Block{g.Entry}
	inWork := make([]bool, n)
	inWork[g.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		if b != g.Entry {
			env := lockEnv{}
			for _, p := range b.Preds {
				for k := range out[p.Index] {
					env[k] = true
				}
			}
			in[b.Index] = env
		}
		env := cloneLockEnv(in[b.Index])
		for _, node := range b.Nodes {
			lockTransfer(pass, node, env, entry)
		}
		if !lockEnvEqual(env, out[b.Index]) {
			out[b.Index] = env
			for _, s := range b.Succs {
				if !inWork[s.Index] {
					inWork[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	for _, b := range g.Blocks {
		if in[b.Index] == nil {
			continue
		}
		env := cloneLockEnv(in[b.Index])
		for _, node := range b.Nodes {
			visit(node, env)
			lockTransfer(pass, node, env, entry)
		}
	}
}

// lockTransfer updates the may-held lockset across one CFG node.
// defer x.Unlock() does not release: the lock is held for the rest of
// the function (scoped-unlock style is fine when the body is pure map
// access — lockscope only fires on risky operations). Unlocking c.mu
// also retires a bare "mu" inherited from the entry lockset (a lock the
// caller holds, released under this function's receiver spelling), but
// not a local mu the function locked itself.
func lockTransfer(pass *Pass, n ast.Node, env lockEnv, entry map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false // deferred release happens at return, not here
		case *ast.CallExpr:
			if key, kind := mutexOp(pass, x); kind == lockAcquire {
				env[key] = true
			} else if kind == lockRelease {
				delete(env, key)
				if name := bareLockName(key); entry[name] {
					delete(env, name)
				}
			}
		}
		return true
	})
}

// entryLocksets computes, for every node of the package call graph,
// the set of mutex names held at entry on EVERY static call path: the
// intersection over static call sites of the caller's lockset at the
// site, reduced to bare names. Exported functions, functions reachable
// dynamically (escape/interface/funcvalue in-edges), and call-graph
// roots get the empty set — their callers are unknown, so nothing may
// be assumed. This is the "extend lockscope's replay across static
// call edges" half of guardedby.
func entryLocksets(pass *Pass, g *callgraph.Graph) map[*callgraph.Node]map[string]bool {
	// Universe for the ⊤ initialization: every mutex name that can
	// appear. A decreasing fixpoint over finite sets terminates.
	// acquires marks callers that lock anything themselves; a caller
	// with an empty entry and no acquires has the empty lockset at
	// every site, which needs no CFG replay to know.
	top := map[string]bool{}
	acquires := map[*callgraph.Node]bool{}
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if key, kind := mutexOp(pass, call); kind == lockAcquire {
					top[bareLockName(key)] = true
					acquires[n] = true
				}
			}
			return true
		})
	}
	cloneTop := func() map[string]bool {
		c := make(map[string]bool, len(top))
		for k := range top {
			c[k] = true
		}
		return c
	}

	unknownEntry := func(n *callgraph.Node) bool {
		if n.Obj != nil && n.Obj.Exported() {
			return true
		}
		static := 0
		for _, e := range n.In {
			if e.Kind == callgraph.Static {
				static++
			} else {
				return true // escapes / dynamic dispatch: unknown context
			}
		}
		return static == 0
	}

	entry := map[*callgraph.Node]map[string]bool{}
	for _, n := range g.Nodes {
		if unknownEntry(n) {
			entry[n] = map[string]bool{}
		} else {
			entry[n] = cloneTop()
		}
	}

	// Recompute each static call site's name-reduced lockset under the
	// caller's current entry, intersecting into the callee, until the
	// (only ever shrinking) entries stabilize.
	changed := true
	for changed {
		changed = false
		for _, caller := range g.Nodes {
			if caller.Body == nil || len(caller.Out) == 0 {
				continue
			}
			var siteNames func(site ast.Node) map[string]bool
			if len(entry[caller]) == 0 && !acquires[caller] {
				empty := map[string]bool{}
				siteNames = func(ast.Node) map[string]bool { return empty }
			} else {
				siteEnv := map[ast.Node]map[string]bool{}
				lockReplay(pass, caller.Name, caller.Body, entry[caller], func(n ast.Node, env lockEnv) {
					names := lockNames(env)
					ast.Inspect(n, func(m ast.Node) bool {
						if lit, isLit := m.(*ast.FuncLit); isLit {
							// Immediately-invoked literal edges use the
							// FuncLit itself as their site.
							if _, exists := siteEnv[lit]; !exists {
								siteEnv[lit] = names
							}
							return false
						}
						if call, ok := m.(*ast.CallExpr); ok {
							if _, exists := siteEnv[call]; !exists {
								siteEnv[call] = names
							}
						}
						return true
					})
				})
				siteNames = func(site ast.Node) map[string]bool {
					if names, ok := siteEnv[site]; ok {
						return names
					}
					return map[string]bool{} // unreachable site: assume nothing
				}
			}
			for _, e := range caller.Out {
				if e.Kind != callgraph.Static {
					continue
				}
				names := siteNames(e.Site)
				cur := entry[e.Callee]
				for k := range cur {
					if !names[k] {
						delete(cur, k)
						changed = true
					}
				}
			}
		}
	}
	return entry
}
