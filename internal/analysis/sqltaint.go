package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/cfg"
)

// SQLTaint is the dataflow successor to the syntactic RawSQL check.
// RawSQL pattern-matches SQL-looking literals near fmt calls; SQLTaint
// instead tracks where query strings come from: any string reaching a
// query-execution sink (sqlast.Parse, DB.ExecSQL, Store.RunSQL) must
// be derived from sqlast rendering — a constant, the output of
// sqlast.Render, or a parameter (the caller's responsibility, checked
// at the caller's own sinks) — tracked through locals and sanctioned
// passthroughs. Concatenation launders nothing: splicing any fragment
// onto rendered SQL yields a tainted string.
var SQLTaint = &Analyzer{
	Name: "sqltaint",
	Doc: "strings reaching query execution (sqlast.Parse, DB.ExecSQL, Store.RunSQL) must " +
		"derive from sqlast rendering or arrive as parameters; concatenation and fmt " +
		"formatting taint, tracked through locals via dataflow",
	Run: runSQLTaint,
}

// sqlSinkMethods are the methods whose first string argument is
// executed as SQL: engine.DB.ExecSQL (the engine's one string entry
// point) and xrel.Store.RunSQL in front of it.
var sqlSinkMethods = map[string]bool{"ExecSQL": true, "RunSQL": true}

func runSQLTaint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSQLTaintFunc(pass, fd.Name.Name, fd.Type, fd.Body)
			// Function literals at any depth are separate scopes with
			// their own parameter boundary (each scope's walk stops at
			// nested literals, so no site is checked twice).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkSQLTaintFunc(pass, fd.Name.Name+".func", fl.Type, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

func checkSQLTaintFunc(pass *Pass, name string, ftype *ast.FuncType, body *ast.BlockStmt) {
	// Fast pre-filter: no sink call, no dataflow needed.
	if !containsSQLSink(pass, body) {
		return
	}
	g := cfg.New(name, body)
	params := stringParams(pass, ftype)
	reach := cfg.Reaching(g, pass.TypesInfo, params, body)
	seed := map[*types.Var]cfg.Value{}
	for _, p := range params {
		// Parameter boundary: the caller is responsible for what it
		// passes (its own sinks are checked in its own function).
		seed[p] = cfg.Yes
	}
	taint := cfg.SolveTaint(g, pass.TypesInfo, seed, reach, func(e ast.Expr, eval func(ast.Expr) cfg.Value) cfg.Value {
		return classifySQLExpr(pass, e, eval)
	})

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // checked as its own scope; not pushed (no closing nil call)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if arg := sqlSinkArg(pass, call); arg != nil {
				stmt, blk := g.BlockOfStack(append(stack[:len(stack):len(stack)], call))
				if blk != nil && taint.EvalAt(stmt, arg) != cfg.Yes {
					pass.Reportf(arg.Pos(),
						"SQL text reaching %s is not derived from sqlast rendering; build the "+
							"statement as a sqlast tree and Render it",
						exprText(pass.Fset, call.Fun))
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// classifySQLExpr assigns lattice values: Yes for sanctioned SQL
// sources, No for everything that taints, Bottom to defer to the
// variable environment.
func classifySQLExpr(pass *Pass, e ast.Expr, eval func(ast.Expr) cfg.Value) cfg.Value {
	// Constants (including concatenations folded by the type checker)
	// are audit-visible in the source: clean.
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return cfg.Yes
	}
	switch x := e.(type) {
	case *ast.Ident:
		return cfg.Bottom // resolved via the environment
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			pkg := pass.importedPkg(sel.X)
			// The sanctioned emitter.
			if strings.HasSuffix(pkg, "internal/sqlast") && (sel.Sel.Name == "Render") {
				return cfg.Yes
			}
			// Whitespace-only passthroughs preserve derivation.
			if pkg == "strings" && (sel.Sel.Name == "TrimSpace" || sel.Sel.Name == "TrimRight" ||
				sel.Sel.Name == "TrimLeft" || sel.Sel.Name == "TrimSuffix" || sel.Sel.Name == "TrimPrefix") {
				if len(x.Args) > 0 {
					return eval(x.Args[0])
				}
			}
			// A String() call on a sqlast node renders through render.go.
			if sel.Sel.Name == "String" {
				if recv := receiverNamedPkg(pass, sel.X); strings.HasSuffix(recv, "internal/sqlast") {
					return cfg.Yes
				}
			}
		}
		return cfg.No // unknown call results taint
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			// Non-constant concatenation splices fragments: tainted
			// regardless of operand provenance.
			return cfg.No
		}
	}
	return cfg.Bottom
}

// sqlSinkArg returns the SQL-text argument of a sink call, or nil.
func sqlSinkArg(pass *Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	// sqlast.Parse(src)
	if strings.HasSuffix(pass.importedPkg(sel.X), "internal/sqlast") && sel.Sel.Name == "Parse" {
		return call.Args[0]
	}
	// DB.ExecSQL(ctx, src, opts), Store.RunSQL(src)
	if !sqlSinkMethods[sel.Sel.Name] {
		return nil
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	recv := receiverNamedPath(selection.Recv())
	if strings.HasSuffix(recv, "internal/engine") || strings.HasSuffix(recv, "xrel") {
		for _, arg := range call.Args {
			if isStringExpr(pass, arg) {
				return arg
			}
		}
	}
	return nil
}

func containsSQLSink(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are their own scope
		}
		if call, ok := n.(*ast.CallExpr); ok && sqlSinkArg(pass, call) != nil {
			found = true
		}
		return true
	})
	return found
}

// stringParams returns the string-typed parameters of a function
// type: the taint boundary (callers answer for what they pass).
func stringParams(pass *Pass, ftype *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				out = append(out, v)
			}
		}
	}
	return out
}

// receiverNamedPkg resolves the package path of an expression's named
// type, or "".
func receiverNamedPkg(pass *Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return receiverNamedPath(tv.Type)
}

func receiverNamedPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}
