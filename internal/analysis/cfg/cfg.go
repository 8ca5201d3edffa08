// Package cfg builds intra-procedural control-flow graphs over go/ast
// function bodies and runs the small dataflow analyses (reaching
// definitions, a must-taint lattice) that power the xvet dataflow
// analyzers (ctxflow, lockscope, sqltaint, hotalloc).
//
// The graph is deliberately statement-granular: each basic block holds
// the ast.Stmt nodes (plus loop/branch condition expressions) executed
// straight-line, in order. Function literals are opaque — a FuncLit is
// a value, not control flow, so its body never contributes blocks to
// the enclosing function's graph; clients build a separate graph per
// literal when they care.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Block is a maximal straight-line sequence of nodes. Entry is
// always Blocks[0]; Exit (the target of every return and the fallout
// of the final statement) is always the last block.
type Block struct {
	Index int
	// Nodes holds the statements and control expressions of the block
	// in execution order. Condition expressions of if/for/switch appear
	// as the last node of the block they are evaluated in.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Kind labels synthetic blocks in dumps ("entry", "exit",
	// "for.head", "if.then", ...). Empty for plain blocks.
	Kind string
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Name is a human label ("(*morselRun).drain") used in dumps.
	Name   string
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	stmtBlock map[ast.Node]*Block
	inLoop    map[*Block]bool
}

// New builds the graph for a function body. name labels dumps; body
// may be the Body of a FuncDecl or a FuncLit.
func New(name string, body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{Name: name, stmtBlock: map[ast.Node]*Block{}},
		labels: map[string]*labelInfo{},
	}
	b.g.Entry = b.newBlock("entry")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	b.g.Exit = b.newBlock("exit")
	b.edge(b.cur, b.g.Exit)
	for _, from := range b.exitEdges {
		b.edge(from, b.g.Exit)
	}
	for _, pg := range b.pendingGotos {
		if li := b.labels[pg.label]; li != nil && li.target != nil {
			b.edge(pg.from, li.target)
		}
	}
	b.g.prune()
	b.g.markLoops()
	return b.g
}

// BlockOf returns the block containing stmt (a node added during
// construction: a statement or a recorded condition expression), or
// nil for nodes in unreachable code or inside function literals.
func (g *Graph) BlockOf(stmt ast.Node) *Block { return g.stmtBlock[stmt] }

// BlockOfStack returns the innermost enclosing node on the stack
// (outermost first, innermost last) that belongs to a block, together
// with its block. It is how a client positions an arbitrary expression
// node — walk out to the enclosing statement.
func (g *Graph) BlockOfStack(stack []ast.Node) (ast.Node, *Block) {
	for i := len(stack) - 1; i >= 0; i-- {
		if b := g.stmtBlock[stack[i]]; b != nil {
			return stack[i], b
		}
	}
	return nil, nil
}

// InLoop reports whether the block is part of a cycle (a non-trivial
// strongly connected component, or a self loop): statements in such
// blocks execute a data-dependent number of times.
func (g *Graph) InLoop(b *Block) bool { return g.inLoop[b] }

// prune drops blocks unreachable from the entry (dead code after
// return/panic) and renumbers, keeping Exit last.
func (g *Graph) prune() {
	seen := map[*Block]bool{g.Entry: true}
	order := []*Block{}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		order = append(order, b)
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Index < order[j].Index })
	// Exit must survive even if nothing falls out (e.g. infinite loop).
	if !seen[g.Exit] {
		order = append(order, g.Exit)
		seen[g.Exit] = true
	}
	for _, b := range order {
		kept := b.Preds[:0]
		for _, p := range b.Preds {
			if seen[p] {
				kept = append(kept, p)
			}
		}
		b.Preds = kept
	}
	for n, b := range g.stmtBlock {
		if !seen[b] {
			delete(g.stmtBlock, n)
		}
	}
	g.Blocks = order
	// Renumber with Exit forced last.
	for i, b := range g.Blocks {
		if b == g.Exit && i != len(g.Blocks)-1 {
			copy(g.Blocks[i:], g.Blocks[i+1:])
			g.Blocks[len(g.Blocks)-1] = b
			break
		}
	}
	for i, b := range g.Blocks {
		b.Index = i
	}
}

// markLoops finds blocks on cycles via Tarjan's SCC algorithm.
func (g *Graph) markLoops() {
	g.inLoop = map[*Block]bool{}
	index := map[*Block]int{}
	low := map[*Block]int{}
	onStack := map[*Block]bool{}
	var stack []*Block
	next := 0
	var strong func(b *Block)
	strong = func(b *Block) {
		index[b] = next
		low[b] = next
		next++
		stack = append(stack, b)
		onStack[b] = true
		for _, s := range b.Succs {
			if _, ok := index[s]; !ok {
				strong(s)
				if low[s] < low[b] {
					low[b] = low[s]
				}
			} else if onStack[s] && index[s] < low[b] {
				low[b] = index[s]
			}
		}
		if low[b] == index[b] {
			var comp []*Block
			for {
				t := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[t] = false
				comp = append(comp, t)
				if t == b {
					break
				}
			}
			if len(comp) > 1 {
				for _, c := range comp {
					g.inLoop[c] = true
				}
			} else {
				for _, s := range comp[0].Succs {
					if s == comp[0] {
						g.inLoop[comp[0]] = true
					}
				}
			}
		}
	}
	for _, b := range g.Blocks {
		if _, ok := index[b]; !ok {
			strong(b)
		}
	}
}

// Dump renders the graph as stable text for golden tests. describe
// renders one node (typically via the position or a short source
// form); nil uses the node's type name.
func (g *Graph) Dump(describe func(ast.Node) string) string {
	if describe == nil {
		describe = func(n ast.Node) string { return fmt.Sprintf("%T", n) }
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %s\n", g.Name)
	for _, b := range g.Blocks {
		kind := b.Kind
		if kind != "" {
			kind = " (" + kind + ")"
		}
		loop := ""
		if g.InLoop(b) {
			loop = " [loop]"
		}
		fmt.Fprintf(&sb, "b%d%s%s:\n", b.Index, kind, loop)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "\t%s\n", describe(n))
		}
		succs := make([]string, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = fmt.Sprintf("b%d", s.Index)
		}
		if len(succs) > 0 {
			fmt.Fprintf(&sb, "\t-> %s\n", strings.Join(succs, " "))
		}
	}
	return sb.String()
}

type labelInfo struct {
	target          *Block // block the labeled statement starts in (goto target)
	brk, cont       *Block // break/continue targets for labeled loops/switches
	pendingLabelFor ast.Stmt
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g   *Graph
	cur *Block // nil after a terminator until the next block starts

	// break/continue target stacks; entries without labels are the
	// innermost targets.
	breaks, continues []*Block
	labels            map[string]*labelInfo
	pendingGotos      []pendingGoto
	exitEdges         []*Block
	// pendingLabel is set when a LabeledStmt is being built: the next
	// loop/switch registers it for labeled break/continue.
	pendingLabel *labelInfo
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// start begins a new block reachable from the current one (if any).
func (b *builder) start(kind string) *Block {
	blk := b.newBlock(kind)
	b.edge(b.cur, blk)
	b.cur = blk
	return blk
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		// Unreachable code still gets a block so BlockOf is total over
		// reachable-looking statements; prune discards it.
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.stmtBlock[n] = b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)
	case *ast.IfStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		b.add(x.Cond)
		condBlk := b.cur
		b.cur = nil
		thenBlk := b.newBlock("if.then")
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(x.Body)
		afterThen := b.cur
		var afterElse *Block
		elseEdgeFrom := condBlk
		if x.Else != nil {
			elseBlk := b.newBlock("if.else")
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(x.Else)
			afterElse = b.cur
			elseEdgeFrom = nil
		}
		join := b.newBlock("if.done")
		b.edge(afterThen, join)
		b.edge(afterElse, join)
		b.edge(elseEdgeFrom, join)
		b.cur = join
	case *ast.ForStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		head := b.start("for.head")
		if x.Cond != nil {
			b.add(x.Cond)
		}
		headEnd := b.cur
		exit := b.newBlock("for.done")
		if x.Cond != nil {
			b.edge(headEnd, exit)
		}
		var post *Block
		contTarget := head
		if x.Post != nil {
			post = b.newBlock("for.post")
			contTarget = post
		}
		body := b.newBlock("for.body")
		b.edge(headEnd, body)
		b.cur = body
		b.pushLoop(exit, contTarget)
		b.stmt(x.Body)
		b.popLoop()
		if post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.add(x.Post)
			b.edge(post, head)
		} else {
			b.edge(b.cur, head)
		}
		b.cur = exit
	case *ast.RangeStmt:
		head := b.start("range.head")
		b.add(x) // the range stmt defines Key/Value each iteration
		exit := b.newBlock("range.done")
		b.edge(head, exit)
		body := b.newBlock("range.body")
		b.edge(head, body)
		b.cur = body
		b.pushLoop(exit, head)
		b.stmt(x.Body)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = exit
	case *ast.SwitchStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		if x.Tag != nil {
			b.add(x.Tag)
		}
		b.switchClauses(x.Body.List, nil)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			b.add(x.Init)
		}
		b.add(x.Assign)
		b.switchClauses(x.Body.List, nil)
	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.start("select.head")
			head.Kind = "select.head"
		}
		b.cur = nil
		exit := b.newBlock("select.done")
		hasDefault := false
		b.pushBreak(exit)
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, exit)
			b.cur = nil
		}
		b.popBreak()
		_ = hasDefault // select with no default still proceeds via some case
		b.cur = exit
	case *ast.LabeledStmt:
		li := &labelInfo{}
		b.labels[x.Label.Name] = li
		// The labeled statement starts a fresh block so gotos can land.
		target := b.start("label." + x.Label.Name)
		li.target = target
		b.pendingLabel = li
		b.stmt(x.Stmt)
		b.pendingLabel = nil
	case *ast.BranchStmt:
		b.add(x)
		switch x.Tok {
		case token.BREAK:
			b.edge(b.cur, b.branchTarget(x.Label, true))
			b.cur = nil
		case token.CONTINUE:
			b.edge(b.cur, b.branchTarget(x.Label, false))
			b.cur = nil
		case token.GOTO:
			if x.Label != nil {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: x.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchClauses via fallsThrough detection.
		}
	case *ast.ReturnStmt:
		b.add(x)
		b.exitEdges = append(b.exitEdges, b.cur)
		b.cur = nil
	case *ast.ExprStmt:
		b.add(x)
		if isTerminatingCall(x.X) {
			b.exitEdges = append(b.exitEdges, b.cur)
			b.cur = nil
		}
	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		if _, ok := s.(*ast.EmptyStmt); !ok {
			b.add(s)
		}
	default:
		b.add(s)
	}
}

// switchClauses wires the case clauses of a switch/type switch: every
// clause is entered from the head block, exits to the common done
// block, and fallthrough chains to the next clause's block.
func (b *builder) switchClauses(clauses []ast.Stmt, _ *Block) {
	head := b.cur
	if head == nil {
		head = b.start("switch.head")
	}
	b.cur = nil
	exit := b.newBlock("switch.done")
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock("case")
	}
	b.pushBreak(exit)
	if b.pendingLabel != nil {
		b.pendingLabel.brk = exit
		b.pendingLabel = nil
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, blocks[i])
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if ft := fallsThrough(cc.Body); ft && i+1 < len(clauses) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, exit)
		}
		b.cur = nil
	}
	b.popBreak()
	if !hasDefault {
		b.edge(head, exit)
	}
	b.cur = exit
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	bs, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if b.pendingLabel != nil {
		b.pendingLabel.brk = brk
		b.pendingLabel.cont = cont
		b.pendingLabel = nil
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreak(brk *Block) { b.breaks = append(b.breaks, brk) }
func (b *builder) popBreak()            { b.breaks = b.breaks[:len(b.breaks)-1] }

func (b *builder) branchTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		if li := b.labels[label.Name]; li != nil {
			if isBreak {
				return li.brk
			}
			return li.cont
		}
		return nil
	}
	if isBreak {
		if len(b.breaks) == 0 {
			return nil
		}
		return b.breaks[len(b.breaks)-1]
	}
	if len(b.continues) == 0 {
		return nil
	}
	return b.continues[len(b.continues)-1]
}

// isTerminatingCall recognizes calls that never return: the panic
// builtin and os.Exit-shaped selectors (Exit, Fatal, Fatalf, Fatalln).
// Purely syntactic — good enough for block termination; a false
// negative only merges two blocks.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
			return true
		}
	}
	return false
}
