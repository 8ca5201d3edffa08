// Package callgraph builds a per-package call graph for the xvet
// analyzers: a CHA-style (class-hierarchy analysis) approximation with
// static call edges, interface dispatch resolved against the method
// sets of the package's declared types, and function literals tracked
// as first-class nodes. It layers on the same vocabulary as the cfg
// package — pure go/ast + go/types, no loader dependency — so the
// interprocedural analyzers (snapfreeze, guardedby, walorder) can
// compose graphs of the package under analysis with graphs of its
// already-type-checked module-internal dependencies.
//
// The graph is deliberately package-local: cross-package calls are
// recorded as Extern sites (with their *types.Func identity) rather
// than edges, and clients stitch packages together through function
// summaries (FreshReturns, the analyzers' own mutator/durability
// summaries). That keeps each package's graph a pure function of its
// own sources plus dependency types, so the analyzers build it, and
// each summary over it, once per package and share it with every
// importer.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a call site reaches its callee.
type EdgeKind int

const (
	// Static: direct call of a declared function, a method on a
	// concrete receiver, or an immediately invoked function literal
	// (including `go lit()` / `defer lit()`).
	Static EdgeKind = iota
	// Interface: dynamic dispatch through an interface method,
	// resolved CHA-style to every declared type of the package whose
	// method set implements the interface.
	Interface
	// FuncValue: call through a func-typed variable or field, resolved
	// by signature against the package's function literals (named
	// functions reached through values are covered by their Escape
	// edges; matching them by bare signature would invent edges the
	// protocol analyzers then have to disprove).
	FuncValue
	// Escape: not a call — the site where a function literal or a
	// method/function value escapes the enclosing function (stored,
	// passed as an argument, returned). The callee may run later, on
	// any goroutine, with no lock context inherited from the site.
	Escape
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "iface"
	case FuncValue:
		return "funcval"
	case Escape:
		return "escape"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// A Node is one function of the package: a declared function or
// method (Obj != nil) or a function literal (Lit != nil), named
// "parent$N" in source order within its parent.
type Node struct {
	Name string
	Obj  *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals
	Body *ast.BlockStmt
	// Parent is the lexically enclosing function of a literal (nil for
	// declared functions).
	Parent *Node

	Out    []*Edge      // calls made by this function, in source order
	In     []*Edge      // call sites reaching this function
	Extern []ExternCall // calls leaving the package, in source order

	litSeq int // per-parent literal counter
}

// An Edge is one intra-package call (or escape) site.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	// Site is the *ast.CallExpr for calls, the *ast.FuncLit or value
	// expression for escapes.
	Site ast.Node
}

// An ExternCall is a call site whose callee is statically known but
// declared outside the package (stdlib or another module package).
type ExternCall struct {
	Callee *types.Func
	Site   *ast.CallExpr
}

// A Graph is the call graph of one package.
type Graph struct {
	Path  string
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Nodes []*Node // declared functions sorted by name, then literals

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeOf returns the node of a declared function or method, or nil. An
// instantiated function or method of a generic type (f[int], the
// methods of box[int]) maps to its declaration's node: the graph has
// one node per body, whatever it is instantiated with.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.byObj[obj.Origin()] }

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Named returns the node with the given display name ("applyInsert",
// "(*Table).Insert", "Open$1"), or nil.
func (g *Graph) Named(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Build constructs the call graph of one type-checked package.
func Build(path string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Graph {
	g := &Graph{
		Path:  path,
		Fset:  fset,
		Pkg:   pkg,
		Info:  info,
		byObj: map[*types.Func]*Node{},
		byLit: map[*ast.FuncLit]*Node{},
	}
	b := &gbuilder{g: g}

	// Pass 1: one node per declared function with a body, so forward
	// references resolve while walking bodies.
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Name: FuncName(obj), Obj: obj, Decl: fd, Body: fd.Body}
			g.byObj[obj] = n
			g.Nodes = append(g.Nodes, n)
			decls = append(decls, fd)
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	sort.Slice(decls, func(i, j int) bool {
		return FuncName(info.Defs[decls[i].Name].(*types.Func)) < FuncName(info.Defs[decls[j].Name].(*types.Func))
	})

	// Pass 2: walk bodies; literal nodes are created (and appended
	// after the named nodes) as they are encountered.
	for _, fd := range decls {
		owner := g.byObj[info.Defs[fd.Name].(*types.Func)]
		b.walkBody(owner, fd.Body)
	}

	// FuncValue dispatch needs the full literal population, so it runs
	// after every body has been walked.
	b.resolveFuncValues()
	return g
}

// FuncName renders a declared function for node names and summaries:
// "f" for functions, "(T).m" / "(*T).m" for methods.
func FuncName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
			star = "*"
		}
		if named, okn := t.(*types.Named); okn {
			return "(" + star + named.Obj().Name() + ")." + obj.Name()
		}
	}
	return obj.Name()
}

type funcValueSite struct {
	owner *Node
	call  *ast.CallExpr
	sig   *types.Signature
}

type gbuilder struct {
	g        *Graph
	fvSites  []funcValueSite
	litCount map[*Node]int
}

func (b *gbuilder) edge(caller, callee *Node, kind EdgeKind, site ast.Node) {
	e := &Edge{Caller: caller, Callee: callee, Kind: kind, Site: site}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// walkBody attributes every call, escape, and nested literal inside
// body to owner. Literal bodies are walked recursively under their own
// nodes, so a call inside a closure belongs to the closure, not to the
// declaring function.
func (b *gbuilder) walkBody(owner *Node, body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			child := b.litNode(owner, x)
			kind := Escape
			if ce, ok := parentCall(stack); ok && ast.Unparen(ce.Fun) == ast.Expr(x) {
				kind = Static // immediately invoked (incl. go/defer)
			}
			b.edge(owner, child, kind, x)
			b.walkBody(child, x.Body)
			return false // child owns everything inside
		case *ast.CallExpr:
			b.call(owner, x)
		case *ast.Ident:
			b.identRef(owner, x, stack)
		}
		stack = append(stack, n)
		return true
	})
}

// litNode creates the node for a function literal, named after its
// lexical parent ("Open$1", "Open$1$1" for a literal inside a literal).
func (b *gbuilder) litNode(owner *Node, lit *ast.FuncLit) *Node {
	if b.litCount == nil {
		b.litCount = map[*Node]int{}
	}
	b.litCount[owner]++
	n := &Node{
		Name:   fmt.Sprintf("%s$%d", owner.Name, b.litCount[owner]),
		Lit:    lit,
		Body:   lit.Body,
		Parent: owner,
		litSeq: b.litCount[owner],
	}
	b.g.byLit[lit] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// parentCall returns the innermost enclosing CallExpr on the stack, if
// the node being visited hangs directly under it.
func parentCall(stack []ast.Node) (*ast.CallExpr, bool) {
	if len(stack) == 0 {
		return nil, false
	}
	ce, ok := stack[len(stack)-1].(*ast.CallExpr)
	return ce, ok
}

// call classifies one call site and records the matching edges.
func (b *gbuilder) call(owner *Node, call *ast.CallExpr) {
	info := b.g.Info
	switch fun := calledExpr(call).(type) {
	case *ast.FuncLit:
		// Edge recorded when the literal itself is visited.
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			b.static(owner, obj, call)
		case *types.Var:
			// Call through a func-typed variable: resolved against the
			// package's literals once all bodies are walked.
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok {
				b.fvSites = append(b.fvSites, funcValueSite{owner, call, sig})
			}
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Package-qualified function (pkg.F) or conversion.
			if obj, okf := info.Uses[fun.Sel].(*types.Func); okf {
				b.static(owner, obj, call)
			}
			return
		}
		switch sel.Kind() {
		case types.MethodVal:
			m, okm := sel.Obj().(*types.Func)
			if !okm {
				return
			}
			if types.IsInterface(sel.Recv()) {
				b.interfaceDispatch(owner, sel.Recv(), m, call)
				return
			}
			b.static(owner, m, call)
		case types.MethodExpr:
			if m, okm := sel.Obj().(*types.Func); okm {
				b.static(owner, m, call)
			}
		case types.FieldVal:
			if sig, oks := sel.Type().Underlying().(*types.Signature); oks {
				b.fvSites = append(b.fvSites, funcValueSite{owner, call, sig})
			}
		}
	}
}

// calledExpr is the function expression of a call without parentheses
// or an explicit instantiation: f[int](x) calls f.
func calledExpr(call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		return ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		return ast.Unparen(ix.X)
	}
	return fun
}

// static records a direct call: an intra-package edge when the callee
// is declared here with a body, an ExternCall otherwise. Either names
// the callee's declaration, not its instantiation.
func (b *gbuilder) static(owner *Node, callee *types.Func, call *ast.CallExpr) {
	callee = callee.Origin()
	if n := b.g.byObj[callee]; n != nil {
		b.edge(owner, n, Static, call)
		return
	}
	owner.Extern = append(owner.Extern, ExternCall{Callee: callee, Site: call})
}

// interfaceDispatch resolves an interface method call CHA-style: every
// named type declared in this package whose method set (value or
// pointer) implements the interface contributes its implementation as
// an Interface edge. Implementations living in other packages are out
// of scope by construction (clients see the call as unresolved and
// must treat it conservatively).
func (b *gbuilder) interfaceDispatch(owner *Node, recv types.Type, m *types.Func, call *ast.CallExpr) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	scope := b.g.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, okn := scope.Lookup(name).(*types.TypeName)
		if !okn || tn.IsAlias() {
			continue
		}
		named, okn2 := tn.Type().(*types.Named)
		if !okn2 || types.IsInterface(named) {
			continue
		}
		var impl types.Type
		if types.Implements(named, iface) {
			impl = named
		} else if p := types.NewPointer(named); types.Implements(p, iface) {
			impl = p
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, b.g.Pkg, m.Name())
		fn, okf := obj.(*types.Func)
		if !okf {
			continue
		}
		if n := b.g.byObj[fn]; n != nil {
			b.edge(owner, n, Interface, call)
		}
	}
}

// identRef records Escape edges for function and method values: a use
// of a declared function outside call position means its body may run
// later from an unknown context.
func (b *gbuilder) identRef(owner *Node, id *ast.Ident, stack []ast.Node) {
	fn, ok := b.g.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	n := b.g.NodeOf(fn)
	if n == nil {
		return
	}
	// In call position (directly, as the .Sel of the called selector, or
	// explicitly instantiated) the static/interface edge already exists.
	site := ast.Expr(id)
	up := len(stack) - 1
	if up >= 0 {
		if se, okSel := stack[up].(*ast.SelectorExpr); okSel && se.Sel == id {
			site = se
			up--
		}
	}
	if up >= 0 {
		switch ix := stack[up].(type) {
		case *ast.IndexExpr:
			if ix.X == site {
				up--
			}
		case *ast.IndexListExpr:
			if ix.X == site {
				up--
			}
		}
	}
	if up >= 0 {
		if ce, okCall := stack[up].(*ast.CallExpr); okCall && calledExpr(ce) == site {
			return
		}
	}
	b.edge(owner, n, Escape, site)
}

// resolveFuncValues adds FuncValue edges from each call-through-value
// site to every function literal with an identical signature.
func (b *gbuilder) resolveFuncValues() {
	for _, site := range b.fvSites {
		for _, n := range b.g.Nodes {
			if n.Lit == nil {
				continue
			}
			sig, ok := b.g.Info.Types[n.Lit].Type.(*types.Signature)
			if !ok {
				continue
			}
			if types.Identical(sig, site.sig) {
				b.edge(site.owner, n, FuncValue, site.call)
			}
		}
	}
}

// Dump renders the whole graph in a stable text form for golden tests:
// one stanza per node in name order, each out-edge and extern call as
// a sorted, deduplicated "-> callee [kind]" line.
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "callgraph %s\n", g.Path)
	for _, n := range g.sortedNodes() {
		sb.WriteString(g.dumpNode(n))
	}
	return sb.String()
}

// DumpFrom renders the subgraph reachable from root (over every edge
// kind), in the same stable form as Dump. Golden tests use it to pin
// the shape of one protocol path without freezing the whole package.
func (g *Graph) DumpFrom(root *Node) string {
	if root == nil {
		return "callgraph <missing root>\n"
	}
	reach := map[*Node]bool{root: true}
	work := []*Node{root}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, e := range n.Out {
			if !reach[e.Callee] {
				reach[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	var nodes []*Node
	for _, n := range g.sortedNodes() {
		if reach[n] {
			nodes = append(nodes, n)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "callgraph %s from %s\n", g.Path, root.Name)
	for _, n := range nodes {
		sb.WriteString(g.dumpNode(n))
	}
	return sb.String()
}

func (g *Graph) sortedNodes() []*Node {
	nodes := append([]*Node(nil), g.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

func (g *Graph) dumpNode(n *Node) string {
	var lines []string
	for _, e := range n.Out {
		lines = append(lines, fmt.Sprintf("\t-> %s [%s]", e.Callee.Name, e.Kind))
	}
	for _, x := range n.Extern {
		lines = append(lines, fmt.Sprintf("\t-> %s [extern]", externName(x.Callee)))
	}
	sort.Strings(lines)
	lines = dedupStrings(lines)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", n.Name)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	return sb.String()
}

// externName renders an out-of-package callee as "pkg.f" /
// "pkg.(*T).m" ("builtin.f" shapes do not occur: builtins are not
// *types.Func).
func externName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // universe scope (error.Error)
	}
	return fn.Pkg().Name() + "." + FuncName(fn)
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// PathTo returns a shortest call path (BFS over the given edge kinds)
// from one of roots to target, as node names, or nil. The analyzers
// use it to attach a minimal call-path witness to interprocedural
// findings.
func PathTo(roots []*Node, target *Node, kinds ...EdgeKind) []string {
	allowed := map[EdgeKind]bool{}
	for _, k := range kinds {
		allowed[k] = true
	}
	if len(kinds) == 0 {
		allowed = map[EdgeKind]bool{Static: true, Interface: true, FuncValue: true, Escape: true}
	}
	prev := map[*Node]*Node{}
	var work []*Node
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := prev[r]; !ok {
			prev[r] = r
			work = append(work, r)
		}
	}
	var found *Node
	for len(work) > 0 && found == nil {
		n := work[0]
		work = work[1:]
		if n == target {
			found = n
			break
		}
		for _, e := range n.Out {
			if !allowed[e.Kind] {
				continue
			}
			if _, seen := prev[e.Callee]; !seen {
				prev[e.Callee] = n
				work = append(work, e.Callee)
			}
		}
	}
	if found == nil {
		return nil
	}
	var rev []string
	for n := found; ; n = prev[n] {
		rev = append(rev, n.Name)
		if prev[n] == n {
			break
		}
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
