package lint

import (
	"go/ast"
	"go/token"

	"quickdrop/internal/lint/dataflow"
)

// Shapecheck infers symbolic tensor shapes along every control-flow path
// and reports statically-provable shape violations: mismatched
// element-wise operands, MatMul family inner-dimension conflicts,
// reshape/view element-count changes, broadcast-incompatible fused ops,
// *Into destinations that cannot hold their result, and out-of-range
// reduction axes. Calls into internal/tensor are modeled axiomatically
// (mirroring the kernels' runtime panics); calls into internal/autodiff
// and internal/nn are summarized by interpreting the callee body at the
// call site. Anything undecidable stays silent — a diagnostic means the
// panic is guaranteed on that path.
var Shapecheck = &Analyzer{
	Name: "shapecheck",
	Doc:  "report statically-provable tensor shape violations (mismatched kernels, bad *Into destinations, broken broadcasts) before they panic at runtime",
	Run:  runShapecheck,
}

func runShapecheck(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkShapesUnit(pass, fd, nil)
			// Function literals are separate analysis units: captured
			// variables are unknown, parameters get fresh symbols.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkShapesUnit(pass, nil, lit)
				}
				return true
			})
		}
	}
}

// checkShapesUnit analyzes one function body (a declaration or a
// literal) with the CFG fixpoint, then replays each reached block once
// with reporting enabled.
func checkShapesUnit(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	pkg := pass.Pkg
	isPanic := func(call *ast.CallExpr) bool { return isBuiltinPanic(pkg.Info, call) }
	var g *dataflow.Graph
	var typ *ast.FuncType
	var recv *ast.FieldList
	if fd != nil {
		g = dataflow.New(fd, isPanic)
		typ, recv = fd.Type, fd.Recv
	} else {
		g = dataflow.NewFromBlock(lit.Body, isPanic)
		typ = lit.Type
	}
	if g == nil {
		return
	}

	ctx := newShapeCtx(pass)
	init := shapeParamsEnv(ctx, pkg, typ, recv)

	an := dataflow.Analysis[*env]{
		Init:  init,
		Join:  joinEnv,
		Equal: eqEnv,
		Stmt:  func(n ast.Node, in *env) *env { return shapeTransfer(ctx, pkg, n, in) },
	}
	res := dataflow.Forward(g, an)

	// Replay: each reached block exactly once, with its fixpoint in-fact
	// and reporting turned on, so every provable violation is reported
	// exactly once at its source position.
	ctx.report = func(pos token.Pos, msg string) {
		pass.Reportf(pos, "%s", msg)
	}
	res.Replay(g, an)
	ctx.report = nil
}

// shapeParamsEnv binds a function's receiver and parameters to fresh
// symbolic values derived from their declaration positions.
func shapeParamsEnv(ctx *shapeCtx, pkg *Package, typ *ast.FuncType, recv *ast.FieldList) *env {
	e := newEnv()
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := identObj(pkg.Info, name)
				if obj == nil {
					continue
				}
				e.set(obj, ctx.defaultParam(obj, name.Pos(), top()))
			}
		}
	}
	bind(recv)
	bind(typ.Params)
	return e
}

// shapeTransfer is the CFG transfer function: it evaluates one
// statement's expressions (firing the kernel models' checks) and updates
// the variable environment. Facts are immutable: mutation clones.
func shapeTransfer(ctx *shapeCtx, pkg *Package, n ast.Node, in *env) *env {
	switch s := n.(type) {
	case *ast.AssignStmt:
		out := in.clone()
		ctx.interpAssign(pkg, out, s)
		return out
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			out := in.clone()
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					ctx.interpValueSpec(pkg, out, vs)
				}
			}
			return out
		}
		return in
	case *ast.ExprStmt:
		ctx.evalExpr(pkg, in, s.X)
		return in
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ctx.evalExpr(pkg, in, r)
		}
		return in
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if obj := identObj(pkg.Info, id); obj != nil {
				if _, tracked := in.get(obj); tracked {
					out := in.clone()
					out.set(obj, top())
					return out
				}
			}
		}
		return in
	case *ast.RangeStmt:
		ctx.evalExpr(pkg, in, s.X)
		out := in
		kill := func(x ast.Expr) {
			if x == nil {
				return
			}
			if id, ok := ast.Unparen(x).(*ast.Ident); ok && id.Name != "_" {
				if obj := identObj(pkg.Info, id); obj != nil {
					if out == in {
						out = in.clone()
					}
					out.set(obj, top())
				}
			}
		}
		kill(s.Key)
		kill(s.Value)
		return out
	case *ast.SendStmt:
		ctx.evalExpr(pkg, in, s.Value)
		return in
	case *ast.DeferStmt, *dataflow.DeferRun, *ast.GoStmt:
		// Deferred and concurrent bodies are analyzed as their own func
		// literal units; their argument shapes at registration time are
		// not constrained here.
		return in
	}
	return in
}
