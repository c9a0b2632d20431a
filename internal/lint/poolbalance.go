package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolBalance enforces the tensor.Pool ownership rules (DESIGN.md,
// "Compute backbone"): a buffer obtained from the pool inside a
// function must be released by that function — a tensor.Put / PutAll
// call (deferred or not) mentioning the buffer — and must not escape
// through a return value or a field store, because only the borrowing
// function may decide when every reference is dead.
//
// The analyzer is two layers. A syntactic layer finds borrows, escapes
// (returns, field stores, unbound results) and functions with no
// release mention at all. On top of it, the flow engine's ownership
// spec tracks a powerset state per borrowed variable over the
// function's CFG — {nil, borrowed, released} — making the pairing
// path-sensitive: a Get that a branch, loop or early return can leave
// un-Put is flagged even when some other path releases it, a Get
// overwriting a still-borrowed variable inside a loop is flagged as a
// loop-carried leak, and a buffer provably released twice is flagged as
// a double Put. Nil-comparison branches refine the state (the
// "if x == nil { x = tensor.GetLike(...) }" lazy-borrow idiom is
// understood), and deferred releases — including releases inside
// deferred function literals — are applied on the synthetic defers
// block every exit path flows through. Paths that leave by panicking
// are exempt from the leak check.
var PoolBalance = &Analyzer{
	Name: "poolbalance",
	Doc:  "pool Get results must be Put on every path in the same function and never escape",
	Run:  runPoolBalance,
}

func isPoolGet(fn *types.Func) bool {
	return isPkgFunc(fn, "Get", "internal/tensor") ||
		isPkgFunc(fn, "GetLike", "internal/tensor") ||
		isMethodOn(fn, "Get", "Pool", "internal/tensor")
}

func isPoolPut(fn *types.Func) bool {
	return isPkgFunc(fn, "Put", "internal/tensor") ||
		isPkgFunc(fn, "PutAll", "internal/tensor") ||
		isMethodOn(fn, "Put", "Pool", "internal/tensor")
}

func runPoolBalance(pass *Pass) {
	// The pool implementation itself legitimately returns Get results.
	if hasPathSuffix(pass.Pkg.Path, "internal/tensor") {
		return
	}
	for _, f := range pass.Pkg.Files {
		funcUnits(f, func(body *ast.BlockStmt) {
			checkPoolBalance(pass, body)
		})
	}
}

// borrow tracks one variable holding pooled storage: either a tensor
// borrowed directly or a slice that pooled tensors are stored into.
type borrow struct {
	pos      token.Pos // the Get call
	released bool      // some Put/PutAll mentions the variable
	escaped  bool
	slice    bool // a slice whose elements are borrowed
}

// poolOwnership words the flow layer's findings.
var poolOwnership = ownership{
	acquired: ownHeld,
	overwrite: func(string) string {
		return "pool Get overwrites a still-borrowed buffer; the previous buffer can never be Put"
	},
	twice: func(string) string {
		return "pooled tensor is Put twice on this path; the second Put poisons a recycled buffer"
	},
	leak: func(string) string {
		return "pool Get is not Put on every path; a branch or early return leaks the buffer"
	},
}

func checkPoolBalance(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	borrows := make(map[types.Object]*borrow)

	// Syntactic layer, pass 1: find borrows — Get results bound to a
	// variable or slice element — and report unbindable results.
	// Nested function literals are their own analysis units.
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isPoolGet(calleeFunc(info, call)) {
					continue
				}
				bindPoolResult(pass, info, borrows, n.Lhs[i], call)
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				call, ok := ast.Unparen(v).(*ast.CallExpr)
				if !ok || !isPoolGet(calleeFunc(info, call)) {
					continue
				}
				if i < len(n.Names) {
					bindPoolResult(pass, info, borrows, n.Names[i], call)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isPoolGet(calleeFunc(info, call)) {
					pass.Reportf(call.Pos(), "pooled tensor is returned; the pool buffer escapes its borrowing function")
				}
			}
		}
	})

	// Syntactic layer, pass 2: releases and escapes. Releases inside
	// nested function literals count (a deferred closure Putting the
	// buffer is the idiom); escapes do not look inside literals.
	releases := func(call *ast.CallExpr, release func(types.Object)) {
		if isPoolPut(calleeFunc(info, call)) {
			for _, arg := range call.Args {
				forIdentObjs(info, arg, release)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			releases(call, func(obj types.Object) {
				if b := borrows[obj]; b != nil {
					b.released = true
				}
			})
		}
		return true
	})
	// Only a directly returned or field-stored borrow escapes; returning
	// a scalar computed from the buffer is fine.
	escapes := func(expr ast.Expr) {
		if b := borrows[exprObj(info, expr)]; b != nil {
			b.escaped = true
		}
	}
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				escapes(res)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					escapes(n.Rhs[i])
				}
			}
		}
	})

	// Flow-sensitive layer: only meaningful for borrows that do have a
	// release mention somewhere — the syntactic layer already covered
	// the rest — and that neither escaped (already reported) nor live in
	// slice elements (per-element states are beyond the domain).
	sites := make(map[pathKey]balanceSite)
	for obj, b := range borrows {
		switch {
		case b.escaped:
			pass.Reportf(b.pos, "pooled tensor escapes via a return or field store; only the borrowing function may Put it")
		case !b.released:
			pass.Reportf(b.pos, "pool Get has no matching tensor.Put/PutAll in this function")
		case !b.slice:
			sites[varKey(obj)] = balanceSite{pos: b.pos}
		}
	}
	if len(sites) > 0 {
		o := poolOwnership
		o.acquires = func(call *ast.CallExpr, _ types.Object) bool { return isPoolGet(calleeFunc(info, call)) }
		o.releases = releases
		checkBalance(pass, info, body, o.spec(), sites)
	}
}

// bindPoolResult records where a Get result lands. Binding to a plain
// variable or a slice element is tracked; binding to a field or
// discarding the result escapes immediately.
func bindPoolResult(pass *Pass, info *types.Info, borrows map[types.Object]*borrow, lhs ast.Expr, call *ast.CallExpr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			pass.Reportf(call.Pos(), "pool Get result is discarded; the buffer can never be Put")
			return
		}
		if obj := identObj(info, lhs); obj != nil {
			if _, ok := borrows[obj]; !ok {
				borrows[obj] = &borrow{pos: call.Pos()}
			}
		}
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := identObj(info, base); obj != nil {
				if _, ok := borrows[obj]; !ok {
					borrows[obj] = &borrow{pos: call.Pos(), slice: true}
				}
			}
		}
	case *ast.SelectorExpr:
		pass.Reportf(call.Pos(), "pooled tensor is stored in a field; the pool buffer escapes its borrowing function")
	default:
		pass.Reportf(call.Pos(), "pool Get result is not bound to a variable; it can never be Put")
	}
}
