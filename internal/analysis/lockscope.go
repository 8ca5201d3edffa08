package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockScope flags critical sections in internal/engine that extend
// across operations with unbounded or externally controlled latency:
// yield/emit callbacks (dynamic calls), channel operations, and
// failpoint sites. The executor's hot structures (pattern cache, hash
// builds, plan cache) are shared across morsel workers; holding their
// mutexes across such operations converts a slow row into a convoy —
// or, with failpoint.Sleep armed, a deadlocked chaos run.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc: "no sync.Mutex/RWMutex held across yield callbacks, channel operations, or " +
		"failpoint sites in internal/engine; shrink the critical section to the map/slice " +
		"operation it protects",
	Run: runLockScope,
}

// runLockScope replays the one lockset dataflow (lockReplay) over each
// declared function that takes a lock, from an empty entry lockset, and
// checks every node against the locks held when it executes.
func runLockScope(pass *Pass) error {
	if !strings.HasSuffix(pass.Pkg.Path(), "internal/engine") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !acquiresLock(pass, fd.Body) {
				continue
			}
			lockReplay(pass, fd.Name.Name, fd.Body, nil, func(n ast.Node, env lockEnv) {
				if len(env) > 0 {
					reportHeldAcross(pass, n, env)
				}
			})
		}
	}
	return nil
}

// lockEnv is the may-held lockset: rendered receiver expressions of
// mutexes that may be locked at this point on some path (union over
// predecessors — a convoy on one path is still a convoy).
type lockEnv map[string]bool

// acquiresLock reports whether body (nested literals included) calls
// Lock or RLock anywhere: a function that never locks holds nothing
// but what it inherits.
func acquiresLock(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, kind := mutexOp(pass, call); kind == lockAcquire {
				found = true
			}
		}
		return !found
	})
	return found
}

func cloneLockEnv(env lockEnv) lockEnv {
	c := make(lockEnv, len(env))
	for k := range env {
		c[k] = true
	}
	return c
}

func lockEnvEqual(a, b lockEnv) bool {
	if b == nil || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

type mutexOpKind int

const (
	notMutexOp mutexOpKind = iota
	lockAcquire
	lockRelease
)

// mutexOp classifies a call as Lock/RLock (acquire) or
// Unlock/RUnlock (release) on a sync.Mutex or sync.RWMutex, returning
// the rendered receiver expression as the lock key.
func mutexOp(pass *Pass, call *ast.CallExpr) (string, mutexOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", notMutexOp
	}
	var kind mutexOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", notMutexOp
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return "", notMutexOp
	}
	obj := selection.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", notMutexOp
	}
	return exprText(pass.Fset, sel.X), kind
}

// reportHeldAcross flags risky operations inside node while any lock
// in env is held.
func reportHeldAcross(pass *Pass, n ast.Node, env lockEnv) {
	held := heldNames(env)
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send while %s is held; shrink the critical section", held)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.Pos(), "channel receive while %s is held; shrink the critical section", held)
			}
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(), "select while %s is held; shrink the critical section", held)
			return false
		case *ast.CallExpr:
			if _, kind := mutexOp(pass, x); kind != notMutexOp {
				return true // lock ops themselves are the critical section
			}
			if isFailpointCall(pass, x) {
				pass.Reportf(x.Pos(),
					"failpoint site while %s is held; an armed Sleep/Panic would stall every "+
						"worker contending for the lock", held)
				return true
			}
			if isDynamicCall(pass, x) && !sealedDispatch(pass, x) {
				pass.Reportf(x.Pos(),
					"dynamic call %s while %s is held; yield/emit callbacks run arbitrary "+
						"user-plan code and must not execute inside a critical section",
					exprText(pass.Fset, x.Fun), held)
			}
		}
		return true
	})
}

func heldNames(env lockEnv) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	if len(names) == 1 {
		return names[0]
	}
	// Stable order for deterministic messages.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}

func isFailpointCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return strings.HasSuffix(pass.importedPkg(sel.X), "internal/failpoint")
}

// isDynamicCall reports whether the callee is not statically known: a
// func-typed variable/field/parameter or an interface method. Static
// funcs, methods on concrete types, builtins, and conversions are not
// dynamic.
func isDynamicCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fun].(type) {
		case *types.Var:
			return true // func-typed local/param
		}
		return false
	case *ast.SelectorExpr:
		if selection, ok := pass.TypesInfo.Selections[fun]; ok {
			switch selection.Kind() {
			case types.FieldVal:
				return true // func-typed field
			case types.MethodVal, types.MethodExpr:
				recv := selection.Recv()
				if types.IsInterface(recv) {
					return true // interface method dispatch
				}
			}
			return false
		}
		// Package-qualified function: static.
		return false
	case *ast.FuncLit:
		return false // direct invocation, statically known body
	}
	return false
}

// sealedDispatch reports whether call is a method call through an
// interface only this package's types can implement (it has an
// unexported method): that reaches bodies this analyzer checks like
// any static callee's, never a caller-supplied callback.
func sealedDispatch(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	iface, ok := selection.Recv().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if m := iface.Method(i); !m.Exported() && m.Pkg() == pass.Pkg {
			return true
		}
	}
	return false
}

// exprText renders a short source form of an expression for messages
// and lock keys.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
