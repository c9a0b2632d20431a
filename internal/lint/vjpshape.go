package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"quickdrop/internal/lint/dataflow"
)

// VJPShape verifies the core invariant second-order gradient matching
// depends on: every autodiff op's VJP must produce gradients whose shape
// equals the corresponding input's shape. Each op function in
// internal/autodiff is interpreted symbolically to discover the shape
// constraints its forward pass imposes; the unconstrained symbols are
// then instantiated with distinct primes, the forward is re-checked
// under that instantiation (ops whose constraints the instantiation
// cannot satisfy are skipped rather than guessed at), and finally the
// recorded VJP is evaluated against the concrete shapes. A diagnostic
// means Grad would return the "produced gradient shape" error for some
// valid input of that op.
var VJPShape = &Analyzer{
	Name: "vjpshape",
	Doc:  "verify each autodiff op's VJP produces gradients matching its input shapes (the invariant gradient accumulation enforces at runtime)",
	Run:  runVJPShape,
}

func runVJPShape(pass *Pass) {
	if !hasPathSuffix(pass.Pkg.Path, "internal/autodiff") {
		return
	}
	checked := make(map[token.Pos]bool)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkOpVJPs(pass, fd, checked)
		}
	}
}

// checkOpVJPs runs the four-phase check over one op function: symbolic
// forward, prime instantiation, concrete forward validation, VJP
// evaluation.
func checkOpVJPs(pass *Pass, fd *ast.FuncDecl, checked map[token.Pos]bool) {
	info, ok := pass.Prog.Decls[declFunc(pass.Pkg, fd)]
	if !ok {
		info = FuncInfo{Decl: fd, Pkg: pass.Pkg}
	}

	// Phase 1: symbolic forward in assume mode. Constraints the forward
	// imposes (same-shape, inner dims, element counts) bind symbols.
	sym := newShapeCtx(pass)
	sym.assume = true
	sym.created = make(map[string]bool)
	sym.interpFunc(info, top(), nil, false)
	if len(sym.nodes) == 0 {
		return
	}

	// Phase 2: instantiate every residual symbol with a distinct prime.
	inst := primeInstantiation(sym, fd)
	if inst == nil {
		return
	}

	// Phase 3: re-run the forward with the concrete arguments, silently.
	// If the instantiation violates any forward constraint (a broadcast
	// the symbolic pass could not capture, say), the op is skipped: a
	// correct op must never be flagged.
	conc := newShapeCtx(pass)
	conc.assume = true
	conc.created = make(map[string]bool)
	recv, args := inst.concreteParams(fd)
	conc.interpFunc(info, recv, args, false)
	if conc.violated {
		return
	}

	// Phase 4: evaluate each recorded VJP against the concrete shapes.
	for _, node := range conc.nodes {
		for i, vjp := range node.vjps {
			if vjp == nil || checked[vjp.Pos()] {
				continue
			}
			checked[vjp.Pos()] = true
			checkOneVJP(pass, node, i)
		}
	}
}

func declFunc(pkg *Package, fd *ast.FuncDecl) *types.Func {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return obj
	}
	return nil
}

// instantiation maps every residual symbol of the symbolic forward run
// to a concrete prime, and resolves shapes under that assignment.
type instantiation struct {
	sym *shapeCtx
	ctx *shapeCtx // holds the prime bindings
	fd  *ast.FuncDecl
	pkg *Package
}

// primeInstantiation assigns distinct primes to the unbound symbols of
// the op's parameters. Unknown-rank parameters become rank-1 tensors
// whose single dimension is the parameter's element count, preserving
// every element-count relation the forward established.
func primeInstantiation(sym *shapeCtx, fd *ast.FuncDecl) *instantiation {
	inst := &instantiation{sym: sym, fd: fd}
	inst.ctx = &shapeCtx{
		pass:   sym.pass,
		subst:  make(map[string]dataflow.Shape),
		dsubst: make(map[string]dataflow.Dim),
		guard:  newInlineGuard(maxSummaryDepth),
	}
	// First pass: give every still-unranked parameter shape a rank-1
	// concretization in terms of its element count.
	syms := make(map[string]bool)
	for _, s := range inst.paramShapes() {
		r := sym.resolveShape(s)
		if r.Dims == nil {
			if r.Sym == "" {
				return nil
			}
			inst.ctx.subst[r.Sym] = dataflow.ShapeOf(r.Elems())
			r = dataflow.ShapeOf(r.Elems())
		}
		for _, d := range r.Dims {
			for _, name := range d.Syms {
				syms[name] = true
			}
		}
	}
	for _, d := range inst.paramDims() {
		for _, name := range sym.resolveDim(d).Syms {
			syms[name] = true
		}
	}
	names := make([]string, 0, len(syms))
	for name := range syms {
		names = append(names, name)
	}
	sort.Strings(names)
	p := int64(1)
	for _, name := range names {
		p = nextPrime(p)
		inst.ctx.dsubst[name] = dataflow.DimConst(p)
	}
	return inst
}

func nextPrime(after int64) int64 {
	for n := after + 1; ; n++ {
		prime := n > 1
		for d := int64(2); d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			return n
		}
	}
}

// paramShapes returns the symbolic shape of every tensor/Value
// parameter (and receiver), as minted by bindParams.
func (inst *instantiation) paramShapes() []dataflow.Shape {
	var out []dataflow.Shape
	inst.eachParam(func(obj types.Object, pos token.Pos) {
		t := obj.Type()
		if isTensor(t) || isNamedIn(t, "Value", "internal/autodiff") {
			out = append(out, dataflow.SymShape(posSym(pos)))
		}
	})
	return out
}

// paramDims returns the symbolic dimension of every int parameter.
func (inst *instantiation) paramDims() []dataflow.Dim {
	var out []dataflow.Dim
	inst.eachParam(func(obj types.Object, pos token.Pos) {
		if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Kind() == types.Int {
			out = append(out, dataflow.DimSym(posSym(pos)+".0"))
		}
	})
	return out
}

func (inst *instantiation) eachParam(fn func(obj types.Object, pos token.Pos)) {
	pkg := inst.sym.pass.Pkg
	visit := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := identObj(pkg.Info, name); obj != nil {
					fn(obj, name.Pos())
				}
			}
		}
	}
	visit(inst.fd.Recv)
	visit(inst.fd.Type.Params)
}

// concrete resolves a symbolic shape through the forward bindings and
// the prime assignment.
func (inst *instantiation) concrete(s dataflow.Shape) dataflow.Shape {
	return inst.ctx.resolveShape(inst.sym.resolveShape(s))
}

// concreteParams builds the concrete receiver and argument values for
// the phase-3 forward re-run.
func (inst *instantiation) concreteParams(fd *ast.FuncDecl) (recv absVal, args []absVal) {
	recv = top()
	build := func(obj types.Object, pos token.Pos) absVal {
		t := obj.Type()
		switch {
		case isTensor(t):
			return tensorV(inst.concrete(dataflow.SymShape(posSym(pos))))
		case isNamedIn(t, "Value", "internal/autodiff"):
			return valueV(inst.concrete(dataflow.SymShape(posSym(pos))))
		default:
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.Int {
				d := inst.ctx.resolveDim(inst.sym.resolveDim(dataflow.DimSym(posSym(pos) + ".0")))
				return intV(d)
			}
		}
		return top()
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		name := fd.Recv.List[0].Names[0]
		if obj := identObj(inst.sym.pass.Pkg.Info, name); obj != nil {
			recv = build(obj, name.Pos())
		}
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := identObj(inst.sym.pass.Pkg.Info, name); obj != nil {
				args = append(args, build(obj, name.Pos()))
			}
		}
	}
	return recv, args
}

// checkOneVJP evaluates the VJP of input i against the node's concrete
// output shape and input i's shape and reports provable gradient-shape
// breaks.
func checkOneVJP(pass *Pass, node *absNode, i int) {
	vjp := node.vjps[i]
	body, params, pkg := vjpBody(pass, node, vjp)
	if body == nil || len(params) < 2 || pkg == nil {
		return
	}
	ctx := newShapeCtx(pass)
	ctx.report = func(pos token.Pos, msg string) {
		pass.Reportf(pos, "op %q VJP: %s", node.op, msg)
	}
	e := newEnv()
	// params[0] is the node (carrying op metadata for inputsArr reads),
	// params[1] the incoming gradient; both have the op's output shape.
	nVal := absVal{kind: aValue, shape: node.result, node: node}
	e.set(params[0], nVal)
	e.set(params[1], valueV(node.result))
	rows, _, ok := ctx.interpStmts(pkg, e, body.List)
	if !ok {
		return
	}
	grads := joinRows(rows)
	if len(grads) != 1 || i >= len(node.inputs) {
		return
	}
	g, in := grads[0], node.inputs[i]
	if (g.kind != aValue && g.kind != aTensor) || (in.kind != aValue && in.kind != aTensor) {
		return
	}
	gs, is := ctx.resolveShape(g.shape), ctx.resolveShape(in.shape)
	if gs.Eq(is) == dataflow.False {
		pass.Reportf(vjp.Pos(),
			"op %q VJP produces gradient shape %s for input %s of shape %s",
			node.op, gs.String(), strconv.Itoa(i), is.String())
	}
}

// vjpBody resolves a VJP expression (a func literal or a reference to a
// named function) to its body and parameter objects.
func vjpBody(pass *Pass, node *absNode, vjp ast.Expr) (*ast.BlockStmt, []types.Object, *Package) {
	pkg := node.vjpPkg
	if pkg == nil {
		pkg = pass.Pkg
	}
	switch v := ast.Unparen(vjp).(type) {
	case *ast.FuncLit:
		return v.Body, litParams(pkg, v), pkg
	case *ast.Ident, *ast.SelectorExpr:
		var obj types.Object
		if id, ok := v.(*ast.Ident); ok {
			obj = pkg.Info.Uses[id]
		} else {
			obj = pkg.Info.Uses[v.(*ast.SelectorExpr).Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return nil, nil, nil
		}
		info, ok := pass.Prog.Decls[fn]
		if !ok || info.Decl.Body == nil {
			return nil, nil, nil
		}
		var params []types.Object
		for _, field := range info.Decl.Type.Params.List {
			for _, name := range field.Names {
				params = append(params, identObj(info.Pkg.Info, name))
			}
		}
		return info.Decl.Body, params, info.Pkg
	}
	return nil, nil, nil
}

func litParams(pkg *Package, lit *ast.FuncLit) []types.Object {
	var params []types.Object
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, identObj(pkg.Info, name))
		}
	}
	return params
}
