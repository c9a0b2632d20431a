package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Shared helpers of the concurrency rules (lockorder, wgbalance):
// classifying sync primitive calls and giving the receiver of a
// Lock/Unlock/Add/Done a stable identity that survives CFG joins.

// syncOp classifies one call on a sync primitive.
type syncOp int

const (
	opNone syncOp = iota
	opLock
	opUnlock
	opRLock
	opRUnlock
	opWGAdd
	opWGDone
	opWGWait
)

// isMutexMethod maps a *types.Func to the lock operation it performs,
// accepting both sync.Mutex and sync.RWMutex receivers (Lock/Unlock are
// declared on both; RLock/RUnlock only on RWMutex).
func isMutexMethod(fn *types.Func) syncOp {
	if fn == nil {
		return opNone
	}
	onMutex := func(name string) bool {
		return isMethodOn(fn, name, "Mutex", "sync") || isMethodOn(fn, name, "RWMutex", "sync")
	}
	switch fn.Name() {
	case "Lock":
		if onMutex("Lock") {
			return opLock
		}
	case "Unlock":
		if onMutex("Unlock") {
			return opUnlock
		}
	case "RLock":
		if isMethodOn(fn, "RLock", "RWMutex", "sync") {
			return opRLock
		}
	case "RUnlock":
		if isMethodOn(fn, "RUnlock", "RWMutex", "sync") {
			return opRUnlock
		}
	}
	return opNone
}

// isWaitGroupMethod maps a *types.Func to the WaitGroup operation it
// performs.
func isWaitGroupMethod(fn *types.Func) syncOp {
	switch {
	case isMethodOn(fn, "Add", "WaitGroup", "sync"):
		return opWGAdd
	case isMethodOn(fn, "Done", "WaitGroup", "sync"):
		return opWGDone
	case isMethodOn(fn, "Wait", "WaitGroup", "sync"):
		return opWGWait
	}
	return opNone
}

// receiverPath resolves the receiver expression of a sync method call
// (everything left of the final .Lock/.Unlock/…) to its pathKey, so
// that s.mu and t.mu are distinct locks while two mentions of
// s.inner.mu agree. Only ident/selector chains over fields qualify;
// index expressions, function results and other dynamic receivers
// return ok=false and stay untracked.
func receiverPath(info *types.Info, expr ast.Expr) (pathKey, bool) {
	var parts []string
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := identObj(info, e)
			if obj == nil {
				return pathKey{}, false
			}
			parts = append(parts, e.Name)
			// parts were collected right-to-left; reverse for display.
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return pathKey{root: obj, path: strings.Join(parts, ".")}, true
		case *ast.SelectorExpr:
			parts = append(parts, e.Sel.Name)
			expr = e.X
		default:
			return pathKey{}, false
		}
	}
}

// syncCall splits a call into its sync-primitive receiver expression.
// For "s.mu.Lock()" it returns the "s.mu" expression; ok=false for
// non-selector call forms.
func syncCallRecv(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return sel.X, true
}

// isBuiltinPanic reports whether the call invokes the builtin panic:
// the CFG's panic-exit predicate for every flow rule.
func isBuiltinPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// syncCallAt classifies n as a call on a trackable sync receiver, with
// classify (isMutexMethod or isWaitGroupMethod) naming the operation;
// op is opNone for any other node.
func syncCallAt(info *types.Info, n ast.Node, classify func(*types.Func) syncOp) (pathKey, syncOp, *ast.CallExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return pathKey{}, opNone, nil
	}
	op := classify(calleeFunc(info, call))
	if op == opNone {
		return pathKey{}, opNone, nil
	}
	recv, ok := syncCallRecv(call)
	if !ok {
		return pathKey{}, opNone, nil
	}
	key, ok := receiverPath(info, recv)
	if !ok {
		return pathKey{}, opNone, nil
	}
	return key, op, call
}

// syncScan is the balance scan of a sync primitive: a rebound root
// makes its receivers unknown, and each call classify maps to op on a
// tracked receiver steps it.
func syncScan(classify func(*types.Func) syncOp, op syncOp) func(bf *balanceFlow, x ast.Node) bool {
	return func(bf *balanceFlow, x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if obj := exprObj(bf.info, lhs); obj != nil {
					bf.forget(obj)
				}
			}
		case *ast.CallExpr:
			if key, got, _ := syncCallAt(bf.info, x, classify); got == op {
				bf.apply(key)
			}
		}
		return true
	}
}

// syncSites records, per receiver, the first call of the unit (outside
// nested literals) that classify maps to one of ops.
func syncSites(info *types.Info, body *ast.BlockStmt, classify func(*types.Func) syncOp, ops ...syncOp) map[pathKey]balanceSite {
	sites := make(map[pathKey]balanceSite)
	inspectShallow(body, func(n ast.Node) {
		key, op, call := syncCallAt(info, n, classify)
		if _, seen := sites[key]; op == opNone || seen || !slices.Contains(ops, op) {
			return
		}
		sites[key] = balanceSite{pos: call.Pos(), name: key.path}
	})
	return sites
}

// funcUnits yields every analysis unit of a file: each function
// declaration body plus each function literal body, treated as separate
// units (a goroutine or deferred closure has its own control flow and
// its own balance obligations).
func funcUnits(f *ast.File, visit func(body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(lit.Body)
			}
			return true
		})
	}
}
