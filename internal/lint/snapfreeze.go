package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"quickdrop/internal/lint/dataflow"
)

// SnapFreeze enforces published-snapshot immutability: the tensors a
// serve.Snapshot hands out through Params() are shared by every reader
// holding a reference, so writing to them — directly, through an
// alias, or by passing them into a function that mutates its argument
// — corrupts concurrent predictions. Outside the snapshot store itself
// the analyzer taints the result of Snapshot.Params() and everything
// reachable from it (the slice, its elements, views of those tensors)
// and reports:
//
//   - in-place tensor mutators (Zero, CopyFrom, AddInPlace, …) on a
//     tainted tensor;
//   - copy(t.Data(), …) and element/field stores through a tainted
//     value (params[i] = x);
//   - a tainted tensor as the destination of an *Into kernel;
//   - passing a tainted value at an argument position the callee
//     mutates, resolved interprocedurally via bottom-up call-graph
//     summaries of which parameter positions each module function
//     writes through.
//
// Methods of Snapshot and SnapshotStore are exempt: the store owns the
// buffers until they are published and reclaims them after the last
// release.
var SnapFreeze = &Analyzer{
	Name: "snapfreeze",
	Doc:  "tensors published via Snapshot.Params are immutable outside the snapshot store",
	Run:  runSnapFreeze,
}

func runSnapFreeze(pass *Pass) {
	// Whole-program rule: run once, from the first loaded package.
	if len(pass.Prog.Packages) == 0 || pass.Pkg != pass.Prog.Packages[0] {
		return
	}
	serveLoaded := false
	for _, pkg := range pass.Prog.Packages {
		if hasPathSuffix(pkg.Path, "internal/serve") {
			serveLoaded = true
			break
		}
	}
	if !serveLoaded {
		return
	}
	sf := &snapFreeze{pass: pass}
	sf.sums = dataflow.FixSummaries(pass.Prog.CallGraph(), dataflow.SummaryAnalysis[*types.Func, map[int]bool]{
		Bottom:   func(*types.Func) map[int]bool { return map[int]bool{} },
		Transfer: sf.mutSummary,
		Equal:    eqSet[int],
	})
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || sf.exempt(pkg, fd) {
					continue
				}
				sf.checkBody(pkg, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						sf.checkBody(pkg, lit.Body)
					}
					return true
				})
			}
		}
	}
}

type snapFreeze struct {
	pass *Pass
	sums map[*types.Func]map[int]bool
}

// exempt reports whether fd is a method of Snapshot or SnapshotStore —
// the store legitimately writes the buffers it has not yet published
// or has already reclaimed.
func (sf *snapFreeze) exempt(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || !hasPathSuffix(pkg.Path, "internal/serve") {
		return false
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	return isMethodOn(fn, fd.Name.Name, "Snapshot", "internal/serve") ||
		isMethodOn(fn, fd.Name.Name, "SnapshotStore", "internal/serve")
}

// chainRootObj unwraps selector/index chains to the root identifier's
// object ("t" for t.data[i]), or nil.
func chainRootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return identObj(info, e)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// mutSummary computes which parameter positions (receiver = -1) fn may
// write through: element/field stores rooted at a parameter, in-place
// tensor mutators, copy into a parameter's storage, *Into destinations,
// taking a parameter's address, and — transitively — passing a
// parameter at a position a callee mutates.
func (sf *snapFreeze) mutSummary(fn *types.Func, get func(*types.Func) map[int]bool) map[int]bool {
	out := map[int]bool{}
	fi, ok := sf.pass.Prog.Decls[fn]
	if !ok || fi.Decl.Body == nil {
		return out
	}
	info := fi.Pkg.Info
	params := paramIndexMap(info, fi.Decl)
	posOf := func(e ast.Expr) (int, bool) {
		obj := chainRootObj(info, e)
		if obj == nil {
			return 0, false
		}
		pi, ok := params[obj]
		return pi, ok
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr, *ast.SelectorExpr:
					if pi, ok := posOf(l); ok {
						out[pi] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if pi, ok := posOf(n.X); ok {
					out[pi] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && tensorMutators[sel.Sel.Name] {
				if cf := calleeFunc(info, n); cf != nil && isMethodOn(cf, sel.Sel.Name, "Tensor", "internal/tensor") {
					if pi, ok := posOf(sel.X); ok {
						out[pi] = true
					}
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) > 0 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if inner, ok := ast.Unparen(n.Args[0]).(*ast.CallExpr); ok {
						if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
							if pi, ok := posOf(sel.X); ok {
								out[pi] = true
							}
						}
					}
				}
			}
			if cf := calleeFunc(info, n); cf != nil {
				if strings.HasSuffix(cf.Name(), "Into") && hasPathSuffix(funcPkgPath(cf), "internal/tensor") && len(n.Args) > 0 {
					if pi, ok := posOf(n.Args[0]); ok {
						out[pi] = true
					}
				}
				if cs := get(cf); len(cs) > 0 {
					forEachCallArgPos(n, cf, func(pos int, arg ast.Expr) {
						if cs[pos] {
							if pi, ok := posOf(arg); ok {
								out[pi] = true
							}
						}
					})
				}
			}
		}
		return true
	})
	return out
}

// checkBody runs the taint flow over one function unit. Ranging over
// the tainted params slice taints the element variable; any other
// range clears both key and value.
func (sf *snapFreeze) checkBody(pkg *Package, body *ast.BlockStmt) {
	runTaint(sf.pass, pkg.Info, body, sf.visit, func(tf taintFlow, obj types.Object, elemOf ast.Expr) {
		tf.mark(obj, elemOf != nil && snapTainted(tf, elemOf))
	})
}

// isSnapshotParams reports whether expr is a Snapshot.Params() call —
// the taint source.
func isSnapshotParams(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && isMethodOn(fn, "Params", "Snapshot", "internal/serve")
}

// snapTainted reports whether expr evaluates to snapshot-published
// storage: a Params() result, a tainted local, an element of one, or a
// view.
func snapTainted(tf taintFlow, expr ast.Expr) bool {
	x := ast.Unparen(expr)
	if isSnapshotParams(tf.info, x) {
		return true
	}
	switch x := x.(type) {
	case *ast.Ident:
		if obj := identObj(tf.info, x); obj != nil {
			return tf.tainted(obj)
		}
	case *ast.IndexExpr:
		return snapTainted(tf, x.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "View", "RowsView":
				if fn := calleeFunc(tf.info, x); fn != nil && isMethodOn(fn, sel.Sel.Name, "Tensor", "internal/tensor") {
					return snapTainted(tf, sel.X)
				}
			}
		}
	}
	return false
}

func (sf *snapFreeze) visit(tf taintFlow, x ast.Node) bool {
	switch x := x.(type) {
	case *ast.FuncLit:
		return false // a unit of its own, even when deferred
	case *ast.AssignStmt:
		if len(x.Lhs) != len(x.Rhs) {
			break
		}
		for i := range x.Rhs {
			switch l := ast.Unparen(x.Lhs[i]).(type) {
			case *ast.Ident:
				if obj := exprObj(tf.info, l); obj != nil {
					tf.mark(obj, snapTainted(tf, x.Rhs[i]))
				}
			case *ast.IndexExpr:
				if snapTainted(tf, l.X) {
					tf.reportf(l.Pos(), "element store into snapshot parameters; tensors published by Snapshot.Params are immutable outside the store")
				}
			case *ast.SelectorExpr:
				if snapTainted(tf, l.X) {
					tf.reportf(l.Pos(), "field write through snapshot parameters; tensors published by Snapshot.Params are immutable outside the store")
				}
			}
		}
	case *ast.CallExpr:
		if tf.replaying {
			sf.checkCall(tf, x)
		}
	}
	return true
}

// checkCall reports mutations of tainted values through calls.
func (sf *snapFreeze) checkCall(tf taintFlow, call *ast.CallExpr) {
	info := tf.info
	// t.Mutator(...) on a tainted tensor.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && tensorMutators[sel.Sel.Name] && snapTainted(tf, sel.X) {
		if fn := calleeFunc(info, call); fn != nil && isMethodOn(fn, sel.Sel.Name, "Tensor", "internal/tensor") {
			tf.reportf(call.Pos(), "%s mutates snapshot parameters; tensors published by Snapshot.Params are immutable outside the store", sel.Sel.Name)
			return
		}
	}
	// copy(t.Data(), ...) through a tainted t.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) > 0 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" && snapTainted(tf, sel.X) {
					tf.reportf(call.Pos(), "copy into snapshot parameter storage; tensors published by Snapshot.Params are immutable outside the store")
					return
				}
			}
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	// SomeKernelInto(t, ...) with a tainted destination.
	if strings.HasSuffix(fn.Name(), "Into") && hasPathSuffix(funcPkgPath(fn), "internal/tensor") && len(call.Args) > 0 {
		if snapTainted(tf, call.Args[0]) {
			tf.reportf(call.Args[0].Pos(), "snapshot parameter used as %s destination; tensors published by Snapshot.Params are immutable outside the store", fn.Name())
			return
		}
	}
	// Passing a tainted value at a position the callee writes through.
	if cs := sf.sums[fn]; len(cs) > 0 {
		forEachCallArgPos(call, fn, func(pos int, arg ast.Expr) {
			if cs[pos] && snapTainted(tf, arg) {
				tf.reportf(arg.Pos(), "%s mutates its %s, and this argument is a snapshot parameter; tensors published by Snapshot.Params are immutable outside the store",
					fn.Name(), argPosName(pos))
			}
		})
	}
}

// argPosName renders a parameter position for diagnostics.
func argPosName(pos int) string {
	if pos < 0 {
		return "receiver"
	}
	return "argument " + strconv.Itoa(pos)
}
