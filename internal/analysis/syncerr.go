package analysis

import (
	"go/ast"
	"go/types"
)

// SyncErr enforces the fsyncgate rule on os.File handles: a failed
// (*os.File).Sync may mean pages reported as written were in fact
// dropped by the kernel, and a failed Close on a writable file may
// lose buffered writes — both errors are part of the durability
// contract and must be propagated, not discarded. The WAL's
// commit path (internal/wal) and the cmd/ tools that write files are
// exactly the places where a swallowed fsync error turns a detectable
// crash into silent data loss.
//
// Flagged:
//
//	defer f.Sync()                    // error lost, any os.File
//	defer f.Close()                   // error lost, writable files only
//	f.Sync()                          // bare call
//	_ = f.Sync()                      // the errdrop opt-out is not
//	_ = f.Close()                     // acceptable for durability errors
//
// Clean:
//
//	if err := f.Sync(); err != nil { ... }
//	return f.Close()
//	defer func() { if cerr := f.Close(); err == nil { err = cerr } }()
//	f, _ := os.Open(path); defer f.Close()   // read-only: no data at risk
//	if err != nil { _ = f.Close(); return nil, err }  // cleanup: an error
//	                                                  // is already returning
//
// A file is considered writable when it is opened in the same file by
// os.Create/os.CreateTemp, or by os.OpenFile with a flag expression
// mentioning O_WRONLY, O_RDWR, O_APPEND, or O_CREATE. Handles of
// unknown origin (fields, parameters) are not flagged for Close;
// Sync has no read-only use, so it is checked unconditionally.
var SyncErr = &Analyzer{
	Name: "syncerr",
	Doc: "flag discarded (*os.File).Sync errors and discarded Close errors on " +
		"writable files (fsyncgate): durability errors must be propagated",
	Run: runSyncErr,
}

func runSyncErr(pass *Pass) error {
	for _, f := range pass.Files {
		drops := durabilityDrops(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.DeferStmt:
				if drops(x, x.Call) {
					if name, recv := fileSyncOrClose(pass, x.Call); name == "Sync" {
						pass.Reportf(x.Pos(), "defer %s.Sync() discards the fsync error: a failed sync may have dropped written pages (fsyncgate); use a named-error defer closure", recv)
					} else {
						pass.Reportf(x.Pos(), "defer %s.Close() on a writable file discards the close error: a failed close can lose buffered writes; use a named-error defer closure", recv)
					}
				}
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok && drops(x, call) {
					if name, recv := fileSyncOrClose(pass, call); name == "Sync" {
						pass.Reportf(x.Pos(), "%s.Sync() error discarded: a failed sync may have dropped written pages (fsyncgate); check and propagate it", recv)
					} else {
						pass.Reportf(x.Pos(), "%s.Close() error on a writable file discarded: a failed close can lose buffered writes; check and propagate it", recv)
					}
				}
			case *ast.AssignStmt:
				// `_ = f.Sync()` / `_ = f.Close()`: the explicit-discard
				// idiom other analyzers honor is still a durability bug.
				if len(x.Lhs) != 1 || len(x.Rhs) != 1 || !isBlank(x.Lhs[0]) {
					break
				}
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok && drops(x, call) {
					if name, recv := fileSyncOrClose(pass, call); name == "Sync" {
						pass.Reportf(x.Pos(), "_ = %s.Sync() blanks a durability error: a failed sync may have dropped written pages (fsyncgate); check and propagate it", recv)
					} else {
						pass.Reportf(x.Pos(), "_ = %s.Close() blanks the close error of a writable file: a failed close can lose buffered writes; check and propagate it", recv)
					}
				}
			}
			return true
		})
	}
	return nil
}

// durabilityDrops returns syncerr's verdict for one file: whether
// stmt, discarding the error of call, drops a durability error — any
// (*os.File).Sync, or Close on a file opened writable in this file
// unless stmt is the error-cleanup idiom. errdrop asks the same
// question and leaves those statements to syncerr, so each dropped
// durability error is one finding. The file's writable handles and
// cleanup statements are collected at its first os.File Close.
func durabilityDrops(pass *Pass, f *ast.File) func(stmt ast.Stmt, call *ast.CallExpr) bool {
	var writable map[types.Object]bool
	var cleanup map[ast.Stmt]bool
	return func(stmt ast.Stmt, call *ast.CallExpr) bool {
		switch name, _ := fileSyncOrClose(pass, call); name {
		case "Sync":
			return true
		case "Close":
			if writable == nil {
				writable, cleanup = writableFiles(pass, f), cleanupCloses(pass, f)
			}
			return writable[recvObject(pass, call)] && !cleanup[stmt]
		}
		return false
	}
}

// fileSyncOrClose reports whether call is (*os.File).Sync or
// (*os.File).Close, returning the method name ("" if neither) and a
// rendering of the receiver for diagnostics.
func fileSyncOrClose(pass *Pass, call *ast.CallExpr) (method, recv string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Sync" && sel.Sel.Name != "Close") {
		return "", ""
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", ""
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return "", ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "File" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "os" {
		return "", ""
	}
	return sel.Sel.Name, exprLabel(sel.X)
}

// recvObject resolves the receiver expression of a method call to its
// variable object, nil for non-identifier receivers.
func recvObject(pass *Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

// writableFiles collects the variables in the file that are opened
// writable: assigned from os.Create/os.CreateTemp, or from os.OpenFile
// whose flag argument mentions a write-mode flag.
func writableFiles(pass *Pass, f *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(lhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok && !isBlank(id) {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.importedPkg(sel.X) != "os" {
			return true
		}
		switch sel.Sel.Name {
		case "Create", "CreateTemp":
			mark(as.Lhs[0])
		case "OpenFile":
			if len(call.Args) >= 2 && mentionsWriteFlag(call.Args[1]) {
				mark(as.Lhs[0])
			}
		}
		return true
	})
	return out
}

// cleanupCloses collects the statements immediately followed by a
// return that carries a non-nil error expression: the error-cleanup
// idiom `if err != nil { _ = f.Close(); return nil, err }`, where the
// close error has nowhere to go because an earlier error is already
// being returned. Both the bare-call and blanked forms are collected.
// A plain `return nil` does not exempt — discarding the close there
// is exactly the bug this analyzer exists to catch.
func cleanupCloses(pass *Pass, f *ast.File) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i := 0; i+1 < len(list); i++ {
			ret, ok := list[i+1].(*ast.ReturnStmt)
			if !ok || !returnsError(pass, ret) {
				continue
			}
			switch list[i].(type) {
			case *ast.ExprStmt, *ast.AssignStmt:
				out[list[i]] = true
			}
		}
		return true
	})
	return out
}

// returnsError reports whether ret returns an error-typed expression
// other than the nil literal.
func returnsError(pass *Pass, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[r]; ok && tv.Type != nil && tv.Type.String() == "error" {
			return true
		}
	}
	return false
}

// mentionsWriteFlag reports whether the flag expression references a
// write-mode os flag constant.
func mentionsWriteFlag(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch id.Name {
			case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
				found = true
			}
		}
		return !found
	})
	return found
}

// exprLabel renders a receiver expression for a diagnostic.
func exprLabel(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + x.Sel.Name
		}
		return x.Sel.Name
	}
	return "file"
}
