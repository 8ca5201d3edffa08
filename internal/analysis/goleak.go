package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLeak flags `go` statements in internal/engine whose goroutine has
// no visible cancellation or join mechanism. The engine's executor
// must never spawn a worker that can outlive its statement: a
// goroutine is accepted only if it receives a context or channel (as
// a parameter or argument), selects on or receives from a channel,
// ranges over a channel, or signals a WaitGroup/Context via a Done
// call (the morsel executor's fan-out idiom). Anything else is a leak
// waiting for a stuck statement.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "flag go statements in internal/engine whose goroutine body has no cancellation " +
		"or join mechanism (no context/channel parameter, no select/receive, no Done call)",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/engine") {
		return nil
	}
	pass.inspect(func(n ast.Node, stack []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if !goroutineGoverned(pass, g) {
			pass.Reportf(g.Pos(),
				"goroutine has no cancellation or join mechanism: pass a context or channel, "+
					"select/receive on one, or join it through a WaitGroup")
		}
		return true
	})
	return nil
}

// goroutineGoverned reports whether the spawned goroutine is visibly
// governed by a cancellation or join mechanism.
func goroutineGoverned(pass *Pass, g *ast.GoStmt) bool {
	// A context or channel handed to the goroutine counts, whatever
	// the callee does with it.
	for _, arg := range g.Call.Args {
		if governedType(pass.TypesInfo.TypeOf(arg)) {
			return true
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		// Named callee: its body is out of lexical reach, so only a
		// context/channel argument (above) can vouch for it.
		return false
	}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			if governedType(pass.TypesInfo.TypeOf(f.Type)) {
				return true
			}
		}
	}
	governed := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if governed {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			governed = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				governed = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					governed = true
				}
			}
		case *ast.CallExpr:
			// wg.Done() (bounded join) or ctx.Done() (cancellation).
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(x.Args) == 0 {
				governed = true
			}
		case *ast.Ident:
			// A captured context or channel used anywhere in the body.
			if governedType(pass.TypesInfo.TypeOf(x)) {
				governed = true
			}
		}
		return !governed
	})
	return governed
}

// governedType reports whether t is a channel or context.Context.
func governedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	return false
}
