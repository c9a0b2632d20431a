package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc forbids known-allocating calls inside the hot paths of
// the training loops. Roots are function declarations carrying a
// //lint:hotpath directive in their doc comment; the analyzer computes
// the set of same-package functions statically reachable from the
// roots and flags, inside that set:
//
//   - (*tensor.Tensor).Shape — it clones; use Dim/Dims;
//   - the allocating tensor convenience methods (Add, Mul, MatMul, …)
//     — use the *Into form with a pooled or hoisted destination;
//   - fmt.Sprintf / Sprint / Sprintln / Errorf — formatting allocates.
//
// Calls inside a panic(...) argument are exempt: the argument is only
// evaluated on the failure path, which is exactly how the kernels keep
// shape diagnostics off the hot path.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "no allocating calls in functions reachable from //lint:hotpath roots",
	Run:  runHotPathAlloc,
}

// allocTensorMethods are the tensor.Tensor methods that always allocate
// a fresh result (the thin wrappers over the *Into kernels, plus the
// copying accessors).
var allocTensorMethods = map[string]string{
	"Shape":       "it clones the shape; use Dim/Dims",
	"Clone":       "it copies the full tensor",
	"Reshape":     "it copies; use View for shared storage",
	"Add":         "use AddInto with a pooled or hoisted destination",
	"Sub":         "use SubInto with a pooled or hoisted destination",
	"Mul":         "use MulInto with a pooled or hoisted destination",
	"Scale":       "use ScaleInto or ScaleInPlace",
	"Neg":         "use ScaleInto or ScaleInPlace",
	"Apply":       "use ApplyInto with a pooled or hoisted destination",
	"Pow":         "use PowInto with a pooled or hoisted destination",
	"Exp":         "use ApplyInto with a pooled or hoisted destination",
	"Log":         "use ApplyInto with a pooled or hoisted destination",
	"ReLU":        "use ReLUInto with a pooled or hoisted destination",
	"ReLUMask":    "use ReLUInto with a pooled or hoisted destination and mask",
	"MatMul":      "use MatMulInto with a pooled or hoisted destination",
	"Transpose":   "use TransposeInto, or the NT/TN matmul forms",
	"SumAxes":     "use SumAxesInto with a pooled or hoisted destination",
	"BroadcastTo": "use BroadcastToInto or a fused broadcast kernel",
}

var allocFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

func runHotPathAlloc(pass *Pass) {
	for fn, fd := range hotReachable(pass) {
		checkHotFunc(pass, fd, fn.Name())
	}
}

// hotReachable returns the package's functions statically reachable
// from its //lint:hotpath roots, mapped to their declarations. The call
// graph is same-package only: cross-package callees are checked at
// their own call sites, not followed. Shared by the hotpathalloc and
// telemetry analyzers so both agree on what "the hot path" is.
func hotReachable(pass *Pass) map[*types.Func]*ast.FuncDecl {
	info := pass.Pkg.Info

	// Collect this package's function declarations and the hot roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if isHotPathRoot(fd) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Static same-package call graph, then BFS from the roots.
	reachable := make(map[*types.Func]*ast.FuncDecl, len(roots))
	queue := append([]*types.Func(nil), roots...)
	for _, r := range roots {
		reachable[r] = decls[r]
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			if _, seen := reachable[callee]; seen {
				return true
			}
			if decl, local := decls[callee]; local {
				reachable[callee] = decl
				queue = append(queue, callee)
			}
			return true
		})
	}
	return reachable
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, name string) {
	if fd == nil {
		return
	}
	info := pass.Pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Arguments of panic(...) run only on the failure path.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return false
			}
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if funcPkgPath(fn) == "fmt" && allocFmtFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path of %s (reachable from a //lint:hotpath root)", fn.Name(), name)
		}
		if hint, ok := allocTensorMethods[fn.Name()]; ok && isMethodOn(fn, fn.Name(), "Tensor", "internal/tensor") {
			pass.Reportf(call.Pos(), "allocating tensor op %s on the hot path of %s: %s", fn.Name(), name, hint)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}
