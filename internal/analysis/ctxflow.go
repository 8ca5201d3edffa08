package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/cfg"
)

// CtxFlow enforces context propagation through the engine's execution
// path. The caller's context is the only thing that bounds a
// statement's time, and the engine's polls of it have a deliberate
// fast path — checkBatch and checkNow return at once when the context
// is nil — so a context must either be the caller's (cancellation and
// deadlines work) or nil (fast path works). context.Background() is
// the worst of both: it defeats the nil fast path while never
// cancelling.
// Within internal/engine and xrel, a function that takes a
// context.Context must hand exactly that context (or a derived one)
// to every context-accepting callee on every path.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "a context.Context parameter in internal/engine or xrel must flow to every " +
		"ctx-accepting callee on every path; context.Background()/TODO() are banned " +
		"(they defeat the engine's nil-context fast path without enabling cancellation)",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !ctxFlowScoped(pass.Pkg.Path()) {
		return nil
	}
	// Rule 1: no context.Background()/TODO() anywhere in scope.
	pass.inspect(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pass.importedPkg(sel.X) == "context" {
			if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s() defeats the engine's nil-context fast path without enabling "+
						"cancellation; pass nil (no context) or thread the caller's ctx",
					sel.Sel.Name)
			}
		}
		return true
	})
	// Rules 2 and 3: per-function dataflow for declared ctx parameters.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := ctxParamVar(pass, fd)
			if ctxParam == nil {
				continue
			}
			checkCtxFunc(pass, fd, ctxParam)
		}
	}
	return nil
}

func ctxFlowScoped(path string) bool {
	return strings.HasSuffix(path, "internal/engine") || strings.HasSuffix(path, "xrel")
}

// ctxParamVar returns the *types.Var of the function's context.Context
// parameter, or nil (blank and unnamed parameters are exempt: they
// declare intent to drop the context, e.g. interface adapters).
func ctxParamVar(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxFunc verifies that within fd every context-typed call
// argument evaluates to the ctx parameter (or a context derived from
// it) on all paths, and that the parameter is used at all.
func checkCtxFunc(pass *Pass, fd *ast.FuncDecl, ctxParam *types.Var) {
	// Rule 3: dropped context — the parameter is never read.
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxParam {
			used = true
		}
		return !used
	})
	if !used {
		pass.Reportf(ctxParam.Pos(),
			"context parameter %s is dropped: no callee receives it and no deadline is read; "+
				"thread it through or rename it _ to declare the drop", ctxParam.Name())
		return
	}

	g := cfg.New(fd.Name.Name, fd.Body)
	reach := cfg.Reaching(g, pass.TypesInfo, []*types.Var{ctxParam}, fd.Body)
	seed := map[*types.Var]cfg.Value{ctxParam: cfg.Yes}
	classify := func(e ast.Expr, eval func(ast.Expr) cfg.Value) cfg.Value {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return cfg.Bottom
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.importedPkg(sel.X) != "context" {
			return cfg.Bottom
		}
		switch sel.Sel.Name {
		case "WithCancel", "WithTimeout", "WithDeadline", "WithValue":
			// Deriving preserves the caller's cancellation signal.
			if len(call.Args) > 0 {
				return eval(call.Args[0])
			}
		case "Background", "TODO":
			return cfg.No
		}
		return cfg.Bottom
	}
	taint := cfg.SolveTaint(g, pass.TypesInfo, seed, reach, classify)

	// Rule 2: every context-typed argument slot of every call in the
	// function body (function literals are separate scopes and keep
	// their captured ctx by construction) must carry the parameter.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope; not pushed (no closing nil call)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkCtxCall(pass, g, taint, stack, call, ctxParam)
		}
		stack = append(stack, n)
		return true
	})
}

func checkCtxCall(pass *Pass, g *cfg.Graph, taint *cfg.Taint, stack []ast.Node, call *ast.CallExpr, ctxParam *types.Var) {
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	stmt, blk := g.BlockOfStack(append(stack[:len(stack):len(stack)], call))
	if blk == nil {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if !isContextType(sig.Params().At(i).Type()) {
			continue
		}
		arg := call.Args[i]
		switch taint.EvalAt(stmt, arg) {
		case cfg.Yes:
			// The parameter (or a derivation) flows here on all paths.
		case cfg.Mixed:
			pass.Reportf(arg.Pos(),
				"context argument carries %s only on some paths; the callee loses the "+
					"caller's deadline on the others", ctxParam.Name())
		default:
			pass.Reportf(arg.Pos(),
				"context argument does not carry the function's ctx parameter %s; "+
					"the callee cannot observe the caller's cancellation", ctxParam.Name())
		}
	}
}

// callSignature resolves the static signature of a call, or nil for
// conversions and builtins.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		return nil // conversion
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
