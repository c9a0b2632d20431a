package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GraphFreeze enforces autodiff-graph immutability outside the engine:
// a tensor reachable from an autodiff.Value is frozen for the graph's
// lifetime (that is what makes views zero-copy and lets VJP closures
// read operands after the forward pass). Outside internal/autodiff the
// analyzer flags, for any expression v.Data whose v is an
// autodiff.Value:
//
//   - calls to the in-place tensor mutators on it (Zero, CopyFrom,
//     AddInPlace, ScaleInPlace, AxpyInPlace, ScaleAddInPlace, Set);
//   - assignments to it (v.Data = …) or through its storage
//     (copy(v.Data.Data(), …));
//   - passing it as the destination of an *Into kernel.
//
// Reading v.Data — including handing it to a kernel as an input, or
// CopyFrom-ing it into a detached buffer — is fine.
//
// The checks are path-sensitive: a flow-sensitive taint analysis over
// the function's CFG tracks locals that alias a node's tensor
// ("t := v.Data" and copies of such locals), so mutating the graph
// through an alias is flagged with the same messages, while a local
// that is reassigned to a detached tensor before the write is not.
var GraphFreeze = &Analyzer{
	Name: "graphfreeze",
	Doc:  "no writes to an autodiff node's tensor outside internal/autodiff",
	Run:  runGraphFreeze,
}

// tensorMutators mutate a tensor's elements in place.
var tensorMutators = map[string]bool{
	"Zero": true, "CopyFrom": true, "AddInPlace": true, "ScaleInPlace": true,
	"AxpyInPlace": true, "ScaleAddInPlace": true, "Set": true,
}

func runGraphFreeze(pass *Pass) {
	if hasPathSuffix(pass.Pkg.Path, "internal/autodiff") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Direct v.Data writes are position-bound, not flow-bound: one
		// lexical sweep covers them everywhere, including literals.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isValueData(info, lhs) {
						pass.Reportf(lhs.Pos(), "assignment to an autodiff node's tensor; graph-held tensors are immutable outside internal/autodiff")
					}
				}
			case *ast.CallExpr:
				checkGraphFreezeCall(pass, info, n)
			}
			return true
		})
		// Alias taint is flow-sensitive and runs per function unit.
		funcUnits(f, func(body *ast.BlockStmt, _ string) {
			runTaint(pass, info, body, graphFreezeVisit, func(tf taintFlow, obj types.Object, _ ast.Expr) {
				tf.mark(obj, false) // element reads are not aliases we model
			})
		})
	}
}

// taintFlow tracks, through one unit, the locals that alias storage a
// rule protects: a key present in the fact is a tainted local.
// graphfreeze and snapfreeze differ in what taints and what they
// report.
type taintFlow struct {
	*keyFlow[types.Object, uint8]
}

// runTaint solves one unit's taint flow, with visit folding each node
// and bind each range key or value.
func runTaint(pass *Pass, info *types.Info, body *ast.BlockStmt,
	visit func(tf taintFlow, x ast.Node) bool, bind func(tf taintFlow, obj types.Object, elemOf ast.Expr)) {
	kf := newKeyFlow[types.Object, uint8](pass, info, body)
	if kf == nil {
		return
	}
	tf := taintFlow{kf}
	kf.walker.visit = func(x ast.Node) bool { return visit(tf, x) }
	kf.walker.bind = func(obj types.Object, elemOf ast.Expr) { bind(tf, obj, elemOf) }
	solveUnit(kf.flowUnit, kf.analysis(keyFact[types.Object, uint8]{}, keyFact[types.Object, uint8].join))
}

func (tf taintFlow) tainted(obj types.Object) bool { return tf.out[obj] != 0 }

// mark taints obj, or clears it: a strong update.
func (tf taintFlow) mark(obj types.Object, tainted bool) {
	var st uint8
	if tainted {
		st = 1
	}
	tf.set(obj, st)
}

// graphFreezeVisit propagates taint through one node: assignments from
// v.Data (or from tainted locals) taint, strong updates from anything
// else clear, and mutating calls on tainted locals are reported.
func graphFreezeVisit(tf taintFlow, x ast.Node) bool {
	switch x := x.(type) {
	case *ast.FuncLit:
		return false // a unit of its own, even when deferred
	case *ast.AssignStmt:
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Rhs {
				if obj := exprObj(tf.info, x.Lhs[i]); obj != nil {
					tf.mark(obj, aliasesNode(tf, x.Rhs[i]))
				}
			}
		}
	case *ast.CallExpr:
		if tf.replaying {
			checkAliasCall(tf, x)
		}
	}
	return true
}

// aliasesNode reports whether expr evaluates to a tensor aliasing an
// autodiff node's storage: v.Data itself, a tainted local, or a view of
// either (views share storage by design).
func aliasesNode(tf taintFlow, expr ast.Expr) bool {
	x := ast.Unparen(expr)
	if isValueData(tf.info, x) {
		return true
	}
	if id, ok := x.(*ast.Ident); ok {
		if obj := identObj(tf.info, id); obj != nil {
			return tf.tainted(obj)
		}
	}
	// t.View(...) and t.RowsView(...) alias t's storage.
	if call, ok := x.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "View", "RowsView":
				if fn := calleeFunc(tf.info, call); fn != nil && isMethodOn(fn, sel.Sel.Name, "Tensor", "internal/tensor") {
					return aliasesNode(tf, sel.X)
				}
			}
		}
	}
	return false
}

// checkAliasCall reports a mutating call through a tainted alias,
// reusing the lexical checks' message wording.
func checkAliasCall(tf taintFlow, call *ast.CallExpr) {
	taintedIdent := func(x ast.Expr) bool {
		obj := exprObj(tf.info, x)
		return obj != nil && tf.tainted(obj)
	}
	// t.Mutator(...) on a tainted t.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		tensorMutators[sel.Sel.Name] && taintedIdent(sel.X) {
		if fn := calleeFunc(tf.info, call); fn != nil && isMethodOn(fn, sel.Sel.Name, "Tensor", "internal/tensor") {
			tf.reportf(call.Pos(), "%s mutates an autodiff node's tensor; graph-held tensors are immutable outside internal/autodiff", sel.Sel.Name)
			return
		}
	}
	// copy(t.Data(), ...) through a tainted t.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) > 0 {
		if _, isBuiltin := tf.info.Uses[id].(*types.Builtin); isBuiltin {
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Data" && taintedIdent(sel.X) {
					tf.reportf(call.Pos(), "copy into an autodiff node's storage; graph-held tensors are immutable outside internal/autodiff")
					return
				}
			}
		}
	}
	// SomeKernelInto(t, ...) with a tainted destination.
	if fn := calleeFunc(tf.info, call); fn != nil && strings.HasSuffix(fn.Name(), "Into") &&
		hasPathSuffix(funcPkgPath(fn), "internal/tensor") && len(call.Args) > 0 {
		if taintedIdent(call.Args[0]) {
			tf.reportf(call.Args[0].Pos(), "autodiff node's tensor used as %s destination; graph-held tensors are immutable outside internal/autodiff", fn.Name())
		}
	}
}

func checkGraphFreezeCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	// v.Data.Mutator(...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		tensorMutators[sel.Sel.Name] && isValueData(info, sel.X) {
		pass.Reportf(call.Pos(), "%s mutates an autodiff node's tensor; graph-held tensors are immutable outside internal/autodiff", sel.Sel.Name)
		return
	}
	// copy(v.Data.Data(), ...) writes through the node's storage.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) > 0 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Data" && isValueData(info, sel.X) {
					pass.Reportf(call.Pos(), "copy into an autodiff node's storage; graph-held tensors are immutable outside internal/autodiff")
				}
			}
		}
		return
	}
	// SomeKernelInto(v.Data, ...) would overwrite the node's result.
	if fn := calleeFunc(info, call); fn != nil && strings.HasSuffix(fn.Name(), "Into") && len(call.Args) > 0 {
		if isValueData(info, call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(), "autodiff node's tensor used as %s destination; graph-held tensors are immutable outside internal/autodiff", fn.Name())
		}
	}
}

// isValueData reports whether expr selects the Data field of an
// autodiff.Value.
func isValueData(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj().Name() != "Data" {
		return false
	}
	return isNamedIn(s.Recv(), "Value", "internal/autodiff")
}
