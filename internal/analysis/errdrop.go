package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags error values that are silently discarded: a call
// whose error result is ignored as a bare statement, or blanked with
// _ in an assignment that keeps other results. The engine's exec/plan
// paths return errors for every malformed plan or value-kind
// mismatch, and the cmd/ tools do file I/O; swallowing either class
// turns wrong answers into silent ones. An assignment that blanks
// every result (`_ = f()`) remains the explicit, greppable opt-out.
// Worker-pool paths add a third drop site: `go f()` detaches the call
// entirely, so an error-returning f loses its error with no
// assignment to grep for. Goroutine bodies must be funcs that return
// nothing (collect errors via channels or per-worker slots, as the
// engine's morsel executor does). `defer f()` is the same drop with a
// delay: the deferred call's error vanishes at scope exit — defer a
// func literal that checks it instead (deferred Close is exempt; the
// sync-before-close discipline is syncerr's domain). A dropped
// (*os.File).Sync error, or Close error on a writable file, is left to
// syncerr altogether, so it is reported once, and not with advice to
// blank it that syncerr would reject. Finally,
// `_ = errors.Join(...)` pierces the usual blank-assign opt-out:
// Join's only purpose is to carry the errors being blanked, so
// discarding its result is always a collected-then-lost bug.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag discarded error returns (bare call statements, _ for the error " +
		"position while keeping other results, `go f()` or `defer f()` on an " +
		"error-returning f, or a blanked errors.Join result); " +
		"use `_ = f()` to discard explicitly",
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) error {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range pass.Files {
		syncerrOwns := durabilityDrops(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				call, ok := x.X.(*ast.CallExpr)
				if !ok || !callReturnsError(pass, call, errType) || errdropExempt(pass, call) ||
					syncerrOwns(x, call) {
					break
				}
				pass.Reportf(x.Pos(), "%s returns an error that is discarded; handle it or assign to _ explicitly",
					calleeLabel(call))
			case *ast.AssignStmt:
				checkBlankedErrors(pass, x, errType)
			case *ast.GoStmt:
				if callReturnsError(pass, x.Call, errType) && !errdropExempt(pass, x.Call) {
					pass.Reportf(x.Pos(), "go %s discards the callee's error result; wrap it in a func that routes the error to a channel or error slot",
						calleeLabel(x.Call))
				}
			case *ast.DeferStmt:
				if callReturnsError(pass, x.Call, errType) && !errdropExempt(pass, x.Call) &&
					!deferCloseIdiom(x.Call) && !syncerrOwns(x, x.Call) {
					pass.Reportf(x.Pos(), "defer %s discards the callee's error result; defer a func literal that checks it",
						calleeLabel(x.Call))
				}
			}
			return true
		})
	}
	return nil
}

// checkBlankedErrors flags `v, _ := f()` where the blanked position
// is an error but other results are kept.
func checkBlankedErrors(pass *Pass, as *ast.AssignStmt, errType types.Type) {
	allBlank := true
	for _, lhs := range as.Lhs {
		if !isBlank(lhs) {
			allBlank = false
			break
		}
	}
	if allBlank {
		// `_ = f()` is the explicit opt-out — except for errors.Join,
		// whose result IS the errors being blanked: collecting errors
		// and then discarding the collection is never intentional.
		for _, rhs := range as.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isErrorsJoin(pass, call) {
				pass.Reportf(call.Pos(), "errors.Join result blanked; the joined errors are lost — handle or return them")
			}
		}
		return
	}
	// Tuple form: v, _ := f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || errdropExempt(pass, call) {
			return
		}
		tv, ok := pass.TypesInfo.Types[call]
		if !ok {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && types.Identical(tuple.At(i).Type(), errType) {
				pass.Reportf(lhs.Pos(), "error result of %s blanked while other results are kept; handle it",
					calleeLabel(call))
			}
		}
		return
	}
	// Parallel form: a, b = f(), g().
	if len(as.Rhs) == len(as.Lhs) {
		for i, lhs := range as.Lhs {
			if !isBlank(lhs) {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok || errdropExempt(pass, call) {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[call]; ok && tv.Type != nil && types.Identical(tv.Type, errType) {
				pass.Reportf(lhs.Pos(), "error result of %s blanked while other results are kept; handle it",
					calleeLabel(call))
			}
		}
	}
}

// callReturnsError reports whether any result of the call is error.
func callReturnsError(pass *Pass, call *ast.CallExpr, errType types.Type) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errType)
	}
}

// errdropExempt lists callees whose errors are conventionally
// ignorable: the fmt print family (stdout/stderr diagnostics) and
// writers that never fail (strings.Builder, bytes.Buffer).
func errdropExempt(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if pkg := pass.importedPkg(fun.X); pkg == "fmt" &&
			(strings.HasPrefix(fun.Sel.Name, "Print") || strings.HasPrefix(fun.Sel.Name, "Fprint")) {
			return true
		}
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			// The type that declares the method, not the selector's: a
			// method promoted from an embedded Builder is the Builder's.
			recv := sel.Recv()
			if f, ok := sel.Obj().(*types.Func); ok {
				if r := f.Type().(*types.Signature).Recv(); r != nil {
					recv = r.Type()
				}
			}
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			switch recv.String() {
			case "strings.Builder", "bytes.Buffer":
				return true
			}
		}
	}
	return false
}

// deferCloseIdiom reports whether the deferred call is a Close method:
// `defer f.Close()` is the universal cleanup idiom, and the cases where
// a Close error matters (writable files ahead of durability claims)
// are owned by the syncerr analyzer.
func deferCloseIdiom(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Close"
}

// isErrorsJoin matches a call to the standard errors.Join.
func isErrorsJoin(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Join" && pass.importedPkg(sel.X) == "errors"
}

// calleeLabel renders the called function for a diagnostic.
func calleeLabel(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
