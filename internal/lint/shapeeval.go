package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"

	"quickdrop/internal/lint/dataflow"
)

// This file is the symbolic evaluator shared by the shapecheck and
// vjpshape analyzers. It models the internal/tensor kernels axiomatically
// (their shape preconditions and result shapes, mirroring the runtime
// panics in tensor.go/into.go/im2col.go) and interprets the bodies of
// module functions — autodiff ops, nn layers — on demand to obtain
// per-call-site interprocedural summaries.
//
// Everything is three-valued: a constraint is only reported when it is
// provably violated in the dataflow.Dim/Shape domain; anything
// undecidable stays silent. Symbol names are derived from token.Pos
// values, which are unique across the shared FileSet and stable across
// re-evaluation, so the CFG fixpoint converges and facts compare equal
// between visits.

// absKind classifies an abstract value.
type absKind int

const (
	aTop absKind = iota
	aNil
	aTensor // *tensor.Tensor with a symbolic shape
	aValue  // *autodiff.Value with a symbolic shape (+ optional node info)
	aInt    // int with a symbolic dimension value
	aDims   // []int whose element values are tracked dimensions
	aFloats // []float64 backing a tensor (t.Data()); dim is the length
	aGeom   // tensor.ConvGeom with tracked fields
)

// absVal is one abstract value.
type absVal struct {
	kind  absKind
	shape dataflow.Shape // aTensor, aValue
	empty bool           // aTensor: provably an empty header (a node's scratch tensor)
	live  bool           // aTensor: provably holds storage (came from a constructor/kernel)
	dim   dataflow.Dim   // aInt, aFloats
	dims  []dataflow.Dim // aDims
	node  *absNode       // aValue: op metadata recorded for vjpshape
	geom  *absGeom       // aGeom
}

func top() absVal { return absVal{kind: aTop} }

// tensorV is a tensor known to have storage (every kernel returns one).
func tensorV(s dataflow.Shape) absVal { return absVal{kind: aTensor, shape: s, live: true} }

// tensorU is a tensor of unknown liveness (function parameters).
func tensorU(s dataflow.Shape) absVal { return absVal{kind: aTensor, shape: s} }

func valueV(s dataflow.Shape) absVal { return absVal{kind: aValue, shape: s} }
func intV(d dataflow.Dim) absVal     { return absVal{kind: aInt, dim: d} }

// absNode records an autodiff node construction (newNode1/1c/2) so that
// vjpshape can later evaluate the recorded VJP expression against the
// recorded input shapes.
type absNode struct {
	op     string
	inputs []absVal
	extra  map[int]absVal // inputsArr writes beyond the declared arity (ReLU's mask)
	vjp    ast.Expr       // the VJP argument (func literal or named function)
	vjpPkg *Package       // package the constructing op lives in
	result dataflow.Shape // shape assigned to the node's Data
}

func (n *absNode) input(i int) absVal {
	if i < len(n.inputs) {
		return n.inputs[i]
	}
	if v, ok := n.extra[i]; ok {
		return v
	}
	return top()
}

// absGeom tracks the fields of a tensor.ConvGeom literal.
type absGeom struct {
	kernel, stride, pad, inH, inW, channel dataflow.Dim
}

// outDim computes (in + 2*pad - kernel)/stride + 1 when every term is a
// plain constant, and unknown otherwise.
func (g *absGeom) outDim(in dataflow.Dim) dataflow.Dim {
	if !in.IsConst() || !g.pad.IsConst() || !g.kernel.IsConst() || !g.stride.IsConst() {
		return dataflow.Dim{}
	}
	return dataflow.DimConst((in.C+2*g.pad.C-g.kernel.C)/g.stride.C + 1)
}

// eqVal compares abstract values for the dataflow fixpoint.
func eqVal(a, b absVal) bool {
	if a.kind != b.kind || a.empty != b.empty || a.live != b.live {
		return false
	}
	switch a.kind {
	case aTensor, aValue:
		if a.node != b.node {
			return false
		}
		return eqShape(a.shape, b.shape)
	case aInt, aFloats:
		return a.dim.Eq(b.dim) == dataflow.True || (!a.dim.Known() && !b.dim.Known())
	case aDims:
		if len(a.dims) != len(b.dims) {
			return false
		}
		for i := range a.dims {
			if !(a.dims[i].Eq(b.dims[i]) == dataflow.True || (!a.dims[i].Known() && !b.dims[i].Known())) {
				return false
			}
		}
		return true
	case aGeom:
		return a.geom == b.geom
	}
	return true
}

func eqShape(a, b dataflow.Shape) bool {
	if a.Sym != b.Sym {
		return false
	}
	if (a.Dims == nil) != (b.Dims == nil) || len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		da, db := a.Dims[i], b.Dims[i]
		if !(da.Eq(db) == dataflow.True || (!da.Known() && !db.Known())) {
			return false
		}
	}
	return true
}

// joinVal is the lattice join of two abstract values.
func joinVal(a, b absVal) absVal {
	if a.kind != b.kind {
		return top()
	}
	switch a.kind {
	case aTensor, aValue:
		out := absVal{kind: a.kind, shape: a.shape.Join(b.shape), empty: a.empty && b.empty, live: a.live && b.live}
		if a.node == b.node {
			out.node = a.node
		}
		return out
	case aInt, aFloats:
		return absVal{kind: a.kind, dim: a.dim.Join(b.dim)}
	case aDims:
		if len(a.dims) != len(b.dims) {
			return top()
		}
		dims := make([]dataflow.Dim, len(a.dims))
		for i := range dims {
			dims[i] = a.dims[i].Join(b.dims[i])
		}
		return absVal{kind: aDims, dims: dims}
	case aGeom:
		if a.geom == b.geom {
			return a
		}
		return top()
	case aNil:
		return a
	}
	return top()
}

// shapeCtx is one evaluation context: substitution state, reporting mode,
// and the interprocedural machinery.
type shapeCtx struct {
	pass *Pass
	// subst binds named unknown-rank shapes; dsubst binds dim symbols.
	subst  map[string]dataflow.Shape
	dsubst map[string]dataflow.Dim
	// created marks symbols minted during the current summary evaluation,
	// so unbound ones can be renamed per call site before escaping.
	created map[string]bool
	// assume turns undecidable constraints into unifications (used while
	// interpreting callee bodies, where the callee is presumed correct).
	assume bool
	// report receives provably-violated constraints; nil is silent.
	// violated is set regardless, so callers can detect any failure.
	report   func(pos token.Pos, msg string)
	violated bool
	// nodes collects every autodiff node construction seen (for vjpshape).
	nodes []*absNode
	// guard bounds call-site summary interpretation: it refuses
	// re-entry into a function already on the inlining chain and caps
	// the nesting depth (shared facility, see callgraph.go).
	guard *inlineGuard
}

func newShapeCtx(pass *Pass) *shapeCtx {
	return &shapeCtx{
		pass:   pass,
		subst:  make(map[string]dataflow.Shape),
		dsubst: make(map[string]dataflow.Dim),
		guard:  newInlineGuard(maxSummaryDepth),
	}
}

const maxSummaryDepth = 8

// posSym derives a deterministic symbol name from a source position.
func posSym(pos token.Pos) string { return "e" + strconv.Itoa(int(pos)) }

// --- substitution ---

func (c *shapeCtx) resolveDim(d dataflow.Dim) dataflow.Dim {
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, s := range d.Syms {
			if r, ok := c.dsubst[s]; ok {
				d = d.Subst(s, r)
				changed = true
				break
			}
		}
		if !changed {
			return d
		}
	}
	return d
}

func (c *shapeCtx) resolveShape(s dataflow.Shape) dataflow.Shape {
	for iter := 0; iter < 8 && s.Sym != "" && s.Dims == nil; iter++ {
		r, ok := c.subst[s.Sym]
		if !ok {
			break
		}
		s = r
	}
	if s.Dims != nil {
		dims := make([]dataflow.Dim, len(s.Dims))
		for i := range dims {
			dims[i] = c.resolveDim(s.Dims[i])
		}
		s = dataflow.Shape{Sym: s.Sym, Dims: dims}
	}
	return s
}

func (c *shapeCtx) resolveVal(v absVal) absVal {
	switch v.kind {
	case aTensor, aValue:
		v.shape = c.resolveShape(v.shape)
	case aInt, aFloats:
		v.dim = c.resolveDim(v.dim)
	case aDims:
		dims := make([]dataflow.Dim, len(v.dims))
		for i := range dims {
			dims[i] = c.resolveDim(v.dims[i])
		}
		v.dims = dims
	}
	return v
}

// freshDimSym mints a deterministic dim symbol for pos (with an index
// discriminator for multi-symbol sites) and records it as created.
func (c *shapeCtx) freshDimSym(pos token.Pos, i int) dataflow.Dim {
	name := posSym(pos) + "." + strconv.Itoa(i)
	if c.created != nil {
		c.created[name] = true
	}
	return dataflow.DimSym(name)
}

func (c *shapeCtx) freshShapeSym(pos token.Pos) dataflow.Shape {
	name := posSym(pos)
	if c.created != nil {
		c.created[name] = true
	}
	return dataflow.SymShape(name)
}

// --- constraints ---

// fail records a provably-violated constraint.
func (c *shapeCtx) fail(pos token.Pos, msg string) {
	c.violated = true
	if c.report != nil {
		c.report(pos, msg)
	}
}

// unifyDim assumes a == b: when one side is a single unbound symbol it is
// bound to the other. Only meaningful in assume mode.
func (c *shapeCtx) unifyDim(a, b dataflow.Dim) {
	if !c.assume {
		return
	}
	a, b = c.resolveDim(a), c.resolveDim(b)
	if a.Eq(b) == dataflow.True {
		return
	}
	if s, ok := singleSym(a); ok {
		c.dsubst[s] = b
		return
	}
	if s, ok := singleSym(b); ok {
		c.dsubst[s] = a
	}
}

func singleSym(d dataflow.Dim) (string, bool) {
	if d.C == 1 && len(d.Syms) == 1 {
		return d.Syms[0], true
	}
	return "", false
}

// unifyShape assumes a == b.
func (c *shapeCtx) unifyShape(a, b dataflow.Shape) {
	if !c.assume {
		return
	}
	a, b = c.resolveShape(a), c.resolveShape(b)
	if a.Dims == nil && a.Sym != "" {
		if b.Known() && b.Sym != a.Sym {
			c.subst[a.Sym] = b
		}
		return
	}
	if b.Dims == nil && b.Sym != "" {
		if a.Known() {
			c.subst[b.Sym] = a
		}
		return
	}
	if a.Dims != nil && b.Dims != nil && len(a.Dims) == len(b.Dims) {
		for i := range a.Dims {
			c.unifyDim(a.Dims[i], b.Dims[i])
		}
	}
}

// requireSameShape models mustSameShape(a, b): report a provable
// mismatch, unify an undecidable one.
func (c *shapeCtx) requireSameShape(pos token.Pos, op string, a, b dataflow.Shape) {
	ra, rb := c.resolveShape(a), c.resolveShape(b)
	if ra.Eq(rb) == dataflow.False {
		c.fail(pos, op+" shape mismatch "+ra.String()+" vs "+rb.String())
		return
	}
	c.unifyShape(a, b)
}

// requireRank forces s to the given rank, returning the (possibly
// refined) ranked shape. Provable rank mismatches are reported via msg.
func (c *shapeCtx) requireRank(pos token.Pos, s dataflow.Shape, rank int, msg string) dataflow.Shape {
	r := c.resolveShape(s)
	if r.Dims != nil {
		if len(r.Dims) != rank {
			c.fail(pos, msg+" "+r.String())
		}
		return r
	}
	dims := make([]dataflow.Dim, rank)
	for i := range dims {
		if r.Sym != "" {
			dims[i] = dataflow.DimSym(r.Sym + "#" + strconv.Itoa(i))
			if c.created != nil {
				c.created[r.Sym+"#"+strconv.Itoa(i)] = true
			}
		} else {
			dims[i] = c.freshDimSym(pos, i)
		}
	}
	ranked := dataflow.ShapeOf(dims...)
	if c.assume && r.Sym != "" {
		c.subst[r.Sym] = ranked
	}
	return ranked
}

// requireElemsEqual models prepDst/reshape element-count checks.
func (c *shapeCtx) requireElemsEqual(pos token.Pos, msg string, a, b dataflow.Shape) {
	ea := c.resolveDim(a.Elems())
	eb := c.resolveDim(b.Elems())
	if ea.Eq(eb) == dataflow.False {
		c.fail(pos, msg)
		return
	}
	c.unifyDim(a.Elems(), b.Elems())
}

// prepDst models tensor.prepDst: a nil or empty-header destination is
// fine; a live destination must hold exactly the result's element count.
func (c *shapeCtx) prepDst(pos token.Pos, op string, dst absVal, result dataflow.Shape) {
	if dst.kind == aNil || (dst.kind == aTensor && dst.empty) {
		return
	}
	if dst.kind != aTensor && dst.kind != aValue {
		return
	}
	rd := c.resolveShape(dst.shape)
	rr := c.resolveShape(result)
	if rd.Elems().Eq(rr.Elems()) == dataflow.False {
		c.fail(pos, op+" destination "+rd.String()+" cannot hold result "+rr.String())
	}
}

// requireBcast models bcastSpans' validation: small must have a's rank
// and each of its dims must be 1 or equal to a's dim.
func (c *shapeCtx) requireBcast(pos token.Pos, op string, full, small dataflow.Shape) {
	rf, rs := c.resolveShape(full), c.resolveShape(small)
	if rf.Dims == nil || rs.Dims == nil {
		return
	}
	if len(rf.Dims) != len(rs.Dims) {
		c.fail(pos, op+" broadcast rank mismatch "+rs.String()+" vs "+rf.String())
		return
	}
	one := dataflow.DimConst(1)
	for i := range rs.Dims {
		if rs.Dims[i].Eq(rf.Dims[i]) == dataflow.False && rs.Dims[i].Eq(one) == dataflow.False {
			c.fail(pos, op+" cannot broadcast "+rs.String()+" against "+rf.String())
			return
		}
	}
}

// matMulDims models tensor.matMulDims, returning the result shape.
func (c *shapeCtx) matMulDims(pos token.Pos, op string, a, b absVal, ta, tb bool) dataflow.Shape {
	as := c.requireRank(pos, a.shape, 2, op+" requires matrices, got")
	bs := c.requireRank(pos, b.shape, 2, op+" requires matrices, got")
	if len(as.Dims) != 2 || len(bs.Dims) != 2 {
		return dataflow.ShapeOf(dataflow.Dim{}, dataflow.Dim{})
	}
	m, k := as.Dims[0], as.Dims[1]
	if ta {
		m, k = k, m
	}
	kb, n := bs.Dims[0], bs.Dims[1]
	if tb {
		kb, n = n, kb
	}
	rk, rkb := c.resolveDim(k), c.resolveDim(kb)
	if rk.Eq(rkb) == dataflow.False {
		c.fail(pos, op+" inner dims differ: "+as.String()+" x "+bs.String())
	} else {
		c.unifyDim(k, kb)
	}
	return dataflow.ShapeOf(c.resolveDim(m), c.resolveDim(n))
}

// --- expression evaluation ---

// env is the variable state of one evaluation (CFG fact or interpreter
// frame). It is treated as immutable by the fixpoint solver: set clones.
type env struct {
	vars map[types.Object]absVal
}

func newEnv() *env { return &env{vars: map[types.Object]absVal{}} }

func (e *env) get(o types.Object) (absVal, bool) {
	v, ok := e.vars[o]
	return v, ok
}

func (e *env) clone() *env {
	m := make(map[types.Object]absVal, len(e.vars))
	for k, v := range e.vars {
		m[k] = v
	}
	return &env{vars: m}
}

// set mutates in place — callers that need persistence clone first.
func (e *env) set(o types.Object, v absVal) { e.vars[o] = v }

func joinEnv(a, b *env) *env {
	m := make(map[types.Object]absVal)
	for k, va := range a.vars {
		if vb, ok := b.vars[k]; ok {
			j := joinVal(va, vb)
			if j.kind != aTop {
				m[k] = j
			}
		}
	}
	return &env{vars: m}
}

func eqEnv(a, b *env) bool {
	if len(a.vars) != len(b.vars) {
		return false
	}
	for k, va := range a.vars {
		vb, ok := b.vars[k]
		if !ok || !eqVal(va, vb) {
			return false
		}
	}
	return true
}

// evalExpr evaluates one expression to an abstract value, running the
// kernel models (and therefore the constraint checks) on every call.
func (c *shapeCtx) evalExpr(pkg *Package, e *env, x ast.Expr) absVal {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			if _, isNil := pkg.Info.Uses[x].(*types.Nil); isNil {
				return absVal{kind: aNil}
			}
		}
		if obj := identObj(pkg.Info, x); obj != nil {
			if v, ok := e.get(obj); ok {
				return v
			}
		}
		return c.constOf(pkg, x)
	case *ast.BasicLit:
		return c.constOf(pkg, x)
	case *ast.CallExpr:
		return c.evalCall(pkg, e, x)
	case *ast.SelectorExpr:
		return c.evalSelector(pkg, e, x)
	case *ast.BinaryExpr:
		return c.evalBinary(pkg, e, x)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &T{} composite literals (e.g. &tensor.Tensor{}) stay opaque.
			return c.evalExpr(pkg, e, x.X)
		}
		return c.constOf(pkg, x)
	case *ast.CompositeLit:
		return c.evalComposite(pkg, e, x)
	case *ast.IndexExpr:
		if v, ok := c.evalNodeInput(pkg, e, x); ok {
			return v
		}
		base := c.evalExpr(pkg, e, x.X)
		if base.kind == aDims {
			if i := c.dimOf(pkg, e, x.Index); i.IsConst() && int(i.C) < len(base.dims) && i.C >= 0 {
				return intV(base.dims[i.C])
			}
		}
		return top()
	case *ast.SliceExpr:
		return top()
	}
	return c.constOf(pkg, x)
}

// constOf folds go/constant integers into dims.
func (c *shapeCtx) constOf(pkg *Package, x ast.Expr) absVal {
	if tv, ok := pkg.Info.Types[x]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if n, exact := constant.Int64Val(tv.Value); exact {
			if n > 0 {
				return intV(dataflow.DimConst(n))
			}
			// Non-positive constants matter for checkShape; carry them as
			// a raw constant dim (DimConst would erase them).
			return absVal{kind: aInt, dim: dataflow.Dim{C: n}}
		}
	}
	return top()
}

// dimOf evaluates an expression as an integer dimension.
func (c *shapeCtx) dimOf(pkg *Package, e *env, x ast.Expr) dataflow.Dim {
	v := c.evalExpr(pkg, e, x)
	if v.kind == aInt {
		return v.dim
	}
	return dataflow.Dim{}
}

func (c *shapeCtx) evalBinary(pkg *Package, e *env, x *ast.BinaryExpr) absVal {
	if v := c.constOf(pkg, x); v.kind == aInt {
		return v
	}
	l, r := c.dimOf(pkg, e, x.X), c.dimOf(pkg, e, x.Y)
	switch x.Op {
	case token.MUL:
		return intV(l.Mul(r))
	case token.QUO:
		return intV(l.Div(r))
	case token.ADD, token.SUB:
		if l.IsConst() && r.IsConst() {
			if x.Op == token.ADD {
				return intV(dataflow.DimConst(l.C + r.C))
			}
			return intV(dataflow.DimConst(l.C - r.C))
		}
	}
	return top()
}

func (c *shapeCtx) evalSelector(pkg *Package, e *env, x *ast.SelectorExpr) absVal {
	base := c.evalExpr(pkg, e, x.X)
	switch x.Sel.Name {
	case "Data":
		if base.kind == aValue {
			return tensorV(base.shape)
		}
	case "Kernel", "Stride", "Pad", "InH", "InW", "Channel":
		if base.kind == aGeom {
			switch x.Sel.Name {
			case "Kernel":
				return intV(base.geom.kernel)
			case "Stride":
				return intV(base.geom.stride)
			case "Pad":
				return intV(base.geom.pad)
			case "InH":
				return intV(base.geom.inH)
			case "InW":
				return intV(base.geom.inW)
			case "Channel":
				return intV(base.geom.channel)
			}
		}
	}
	return top()
}

func (c *shapeCtx) evalComposite(pkg *Package, e *env, x *ast.CompositeLit) absVal {
	tv, ok := pkg.Info.Types[x]
	if !ok {
		return top()
	}
	if isNamedIn(tv.Type, "ConvGeom", "internal/tensor") {
		g := &absGeom{}
		for _, elt := range x.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			d := c.dimOf(pkg, e, kv.Value)
			switch key.Name {
			case "Kernel":
				g.kernel = d
			case "Stride":
				g.stride = d
			case "Pad":
				g.pad = d
			case "InH":
				g.inH = d
			case "InW":
				g.inW = d
			case "Channel":
				g.channel = d
			}
		}
		return absVal{kind: aGeom, geom: g}
	}
	// []int{...} and []float64{...} literals.
	if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
		if basic, ok := sl.Elem().(*types.Basic); ok {
			switch basic.Kind() {
			case types.Int:
				dims := make([]dataflow.Dim, len(x.Elts))
				for i, elt := range x.Elts {
					dims[i] = c.dimOf(pkg, e, elt)
				}
				return absVal{kind: aDims, dims: dims}
			case types.Float64:
				return absVal{kind: aFloats, dim: dataflow.DimConst(int64(len(x.Elts)))}
			}
		}
	}
	return top()
}

// variadicShape evaluates the trailing shape arguments of a constructor
// call (either spread ints or a single `slice...`).
func (c *shapeCtx) variadicShape(pkg *Package, e *env, call *ast.CallExpr, from int) (dataflow.Shape, bool) {
	if call.Ellipsis != token.NoPos {
		if len(call.Args) == from+1 {
			v := c.evalExpr(pkg, e, call.Args[from])
			if v.kind == aDims {
				allKnown := true
				for _, d := range v.dims {
					if !d.Known() {
						allKnown = false
					}
				}
				return dataflow.ShapeOf(v.dims...), allKnown
			}
		}
		return dataflow.TopShape(), false
	}
	if len(call.Args) <= from {
		return dataflow.TopShape(), false
	}
	dims := make([]dataflow.Dim, 0, len(call.Args)-from)
	allKnown := true
	for i := from; i < len(call.Args); i++ {
		v := c.evalExpr(pkg, e, call.Args[i])
		var d dataflow.Dim
		if v.kind == aInt {
			if v.dim.C <= 0 && len(v.dim.Syms) == 0 && v.dim.C != 0 {
				c.fail(call.Args[i].Pos(), "non-positive dimension in shape")
				d = dataflow.Dim{}
			} else {
				d = v.dim
			}
		}
		if !d.Known() {
			allKnown = false
		}
		dims = append(dims, d)
	}
	return dataflow.ShapeOf(dims...), allKnown
}

// evalCall dispatches builtins, tensor kernel models, autodiff node
// constructors, and interprocedural summaries.
func (c *shapeCtx) evalCall(pkg *Package, e *env, call *ast.CallExpr) absVal {
	// Builtin len.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			v := c.evalExpr(pkg, e, call.Args[0])
			switch v.kind {
			case aDims:
				return intV(dataflow.DimConst(int64(len(v.dims))))
			case aFloats:
				return intV(v.dim)
			}
			return top()
		}
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		// Indirect calls and conversions: evaluate args for their side
		// checks and give up on the result.
		for _, a := range call.Args {
			c.evalExpr(pkg, e, a)
		}
		return top()
	}
	pkgPath := funcPkgPath(fn)
	if recv := recvNamed(fn); recv != nil && recv.Obj().Pkg() != nil {
		pkgPath = recv.Obj().Pkg().Path()
	}
	switch {
	case hasPathSuffix(pkgPath, "internal/tensor"):
		return c.evalTensorCall(pkg, e, call, fn)
	case hasPathSuffix(pkgPath, "internal/autodiff"):
		if v, ok := c.evalAutodiffBuiltin(pkg, e, call, fn); ok {
			return v
		}
		return c.summarize(pkg, e, call, fn)
	case hasPathSuffix(pkgPath, "internal/nn"):
		return c.summarize(pkg, e, call, fn)
	}
	for _, a := range call.Args {
		c.evalExpr(pkg, e, a)
	}
	return top()
}

// evalAutodiffBuiltin models the node constructors and leaf wrappers of
// internal/autodiff that the interpreter must not (or need not) inline.
func (c *shapeCtx) evalAutodiffBuiltin(pkg *Package, e *env, call *ast.CallExpr, fn *types.Func) (absVal, bool) {
	arg := func(i int) absVal {
		if i < len(call.Args) {
			return c.evalExpr(pkg, e, call.Args[i])
		}
		return top()
	}
	if isMethodOn(fn, "scratch", "Value", "internal/autodiff") {
		return absVal{kind: aTensor, empty: true}, true
	}
	if isMethodOn(fn, "Shape", "Value", "internal/autodiff") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			v := c.evalExpr(pkg, e, sel.X)
			if v.kind == aValue {
				rs := c.resolveShape(v.shape)
				if rs.Dims != nil {
					return absVal{kind: aDims, dims: rs.Dims}, true
				}
			}
		}
		return top(), true
	}
	switch fn.Name() {
	case "Const", "Var":
		if isPkgFunc(fn, fn.Name(), "internal/autodiff") {
			t := arg(0)
			return valueV(t.shape), true
		}
	case "Scalar":
		if isPkgFunc(fn, "Scalar", "internal/autodiff") {
			return valueV(dataflow.ShapeOf(dataflow.DimConst(1))), true
		}
	case "newNode1", "newNode1c", "newNode2":
		if recvNamed(fn) != nil || !hasPathSuffix(funcPkgPath(fn), "internal/autodiff") {
			break
		}
		node := &absNode{vjpPkg: c.declPkg(fn)}
		if len(call.Args) > 0 {
			if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				node.op = constant.StringVal(tv.Value)
			}
		}
		data := arg(1)
		var inputs []absVal
		switch fn.Name() {
		case "newNode1":
			inputs = []absVal{arg(2)}
			node.vjp = argExpr(call, 3)
		case "newNode1c":
			inputs = []absVal{arg(2)}
			c.evalExpr(pkg, e, call.Args[3])
			node.vjp = argExpr(call, 4)
		case "newNode2":
			inputs = []absVal{arg(2), arg(3)}
			node.vjp = argExpr(call, 4)
		}
		node.inputs = inputs
		c.nodes = append(c.nodes, node)
		v := absVal{kind: aValue, node: node}
		if data.kind == aTensor {
			v.shape = data.shape
			node.result = data.shape
		}
		return v, true
	}
	return top(), false
}

func argExpr(call *ast.CallExpr, i int) ast.Expr {
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

func (c *shapeCtx) declPkg(fn *types.Func) *Package {
	if info, ok := c.pass.Prog.Decls[fn]; ok {
		return info.Pkg
	}
	return nil
}

// evalTensorCall applies the axiomatic model of an internal/tensor
// function or method. The models mirror the runtime shape panics.
func (c *shapeCtx) evalTensorCall(pkg *Package, e *env, call *ast.CallExpr, fn *types.Func) absVal {
	pos := call.Pos()
	arg := func(i int) absVal {
		if i < len(call.Args) {
			return c.evalExpr(pkg, e, call.Args[i])
		}
		return top()
	}
	dim := func(i int) dataflow.Dim {
		v := arg(i)
		if v.kind == aInt {
			return v.dim
		}
		return dataflow.Dim{}
	}
	// Receiver of a method call.
	var recv absVal
	if recvNamed(fn) != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = c.evalExpr(pkg, e, sel.X)
		} else {
			recv = top()
		}
	}
	recvShape := func() dataflow.Shape {
		if recv.kind == aTensor || recv.kind == aValue {
			return recv.shape
		}
		return dataflow.TopShape()
	}

	if recvNamed(fn) != nil {
		if isMethodOn(fn, fn.Name(), "ConvGeom", "internal/tensor") {
			if recv.kind == aGeom {
				switch fn.Name() {
				case "OutH":
					return intV(recv.geom.outDim(recv.geom.inH))
				case "OutW":
					return intV(recv.geom.outDim(recv.geom.inW))
				}
			}
			return top()
		}
		if isMethodOn(fn, fn.Name(), "Pool", "internal/tensor") {
			switch fn.Name() {
			case "Get":
				s, _ := c.variadicShape(pkg, e, call, 0)
				return tensorV(s)
			}
			return top()
		}
		if !isMethodOn(fn, fn.Name(), "Tensor", "internal/tensor") {
			return top()
		}
		rs := recvShape()
		switch fn.Name() {
		case "Shape":
			r := c.resolveShape(rs)
			if r.Dims != nil {
				return absVal{kind: aDims, dims: r.Dims}
			}
			return top()
		case "ShapeString", "String":
			return top()
		case "Dims":
			if r := c.resolveShape(rs); r.Dims != nil {
				return intV(dataflow.DimConst(int64(len(r.Dims))))
			}
			return top()
		case "Dim":
			r := c.resolveShape(rs)
			i := dim(0)
			if r.Dims != nil && i.IsConst() {
				if int(i.C) >= len(r.Dims) || i.C < 0 {
					c.fail(pos, "Dim index "+strconv.FormatInt(i.C, 10)+" out of range for shape "+r.String())
					return top()
				}
				return intV(r.Dims[i.C])
			}
			if r.Sym != "" && i.IsConst() {
				return intV(dataflow.DimSym(r.Sym + "#" + strconv.FormatInt(i.C, 10)))
			}
			return top()
		case "Len":
			return intV(c.resolveShape(rs).Elems())
		case "Data":
			return absVal{kind: aFloats, dim: c.resolveShape(rs).Elems()}
		case "Clone", "Zero", "ScaleInPlace", "Neg", "Apply", "Pow", "Exp", "Log",
			"ReLU", "ReLUMask", "Scale":
			return tensorV(rs)
		case "CopyFrom", "Add", "Sub", "Mul", "AddInPlace", "AxpyInPlace", "ScaleAddInPlace":
			o := arg(argIdxSameShape(fn.Name()))
			if o.kind == aTensor || o.kind == aValue {
				c.requireSameShape(pos, fn.Name(), rs, o.shape)
			}
			return tensorV(rs)
		case "Dot":
			o := arg(0)
			if o.kind == aTensor || o.kind == aValue {
				c.requireSameShape(pos, "Dot", rs, o.shape)
			}
			return top()
		case "Reshape", "View":
			s, _ := c.variadicShape(pkg, e, call, 0)
			c.requireElemsEqual(pos, "cannot "+lower(fn.Name())+" "+c.resolveShape(rs).String()+" as "+c.resolveShape(s).String()+": element counts differ", rs, s)
			return tensorV(s)
		case "ViewLike":
			ref := arg(0)
			c.requireElemsEqual(pos, "cannot view "+c.resolveShape(rs).String()+" as "+c.resolveShape(ref.shape).String()+": element counts differ", rs, ref.shape)
			return tensorV(ref.shape)
		case "RowsView":
			r := c.requireRank(pos, rs, 2, "RowsView requires a matrix, got")
			lo, hi := dim(0), dim(1)
			var rows dataflow.Dim
			if lo.IsConst() && hi.IsConst() && hi.C > lo.C {
				rows = dataflow.DimConst(hi.C - lo.C)
			}
			cols := dataflow.Dim{}
			if len(r.Dims) == 2 {
				cols = r.Dims[1]
			}
			return tensorV(dataflow.ShapeOf(rows, cols))
		case "SumAxes":
			return tensorV(c.sumAxesModel(pkg, e, call, pos, "SumAxes", rs, 0))
		case "BroadcastTo":
			s, _ := c.variadicShape(pkg, e, call, 0)
			c.requireBcast(pos, "BroadcastTo", s, rs)
			return tensorV(s)
		case "MatMul":
			return tensorV(c.matMulDims(pos, "MatMul", absVal{kind: aTensor, shape: rs}, arg(0), false, false))
		case "Transpose":
			r := c.requireRank(pos, rs, 2, "Transpose requires a matrix, got")
			if len(r.Dims) == 2 {
				return tensorV(dataflow.ShapeOf(r.Dims[1], r.Dims[0]))
			}
			return tensorV(dataflow.ShapeOf(dataflow.Dim{}, dataflow.Dim{}))
		case "ArgMaxRows":
			c.requireRank(pos, rs, 2, "ArgMaxRows requires a matrix, got")
			return top()
		}
		return top()
	}

	// Package-level functions.
	switch fn.Name() {
	case "New", "Ones", "Get":
		from := 0
		if fn.Name() == "Ones" {
			from = 0
		}
		s, _ := c.variadicShape(pkg, e, call, from)
		return tensorV(s)
	case "Full":
		s, _ := c.variadicShape(pkg, e, call, 1)
		return tensorV(s)
	case "Randn":
		s, _ := c.variadicShape(pkg, e, call, 2)
		return tensorV(s)
	case "Uniform":
		s, _ := c.variadicShape(pkg, e, call, 3)
		return tensorV(s)
	case "FromSlice":
		data := arg(0)
		s, known := c.variadicShape(pkg, e, call, 1)
		if data.kind == aFloats && known {
			ea := c.resolveDim(data.dim)
			eb := c.resolveDim(s.Elems())
			if ea.Eq(eb) == dataflow.False {
				c.fail(pos, "data length "+ea.String()+" does not match shape "+c.resolveShape(s).String())
			}
		}
		return tensorV(s)
	case "NewLike", "GetLike":
		t := arg(0)
		return tensorV(t.shape)
	case "Put", "PutAll":
		arg(0)
		return top()
	case "AddInto", "SubInto", "MulInto", "AddScaledInto":
		ai, bi := 1, 2
		if fn.Name() == "AddScaledInto" {
			bi = 3
		}
		a, b := arg(ai), arg(bi)
		c.requireSameShape(pos, fn.Name(), a.shape, b.shape)
		c.prepDst(pos, fn.Name(), arg(0), a.shape)
		return tensorV(a.shape)
	case "ScaleInto", "ApplyInto", "AddConstInto", "PowInto":
		a := arg(1)
		c.prepDst(pos, fn.Name(), arg(0), a.shape)
		return tensorV(a.shape)
	case "ReLUInto":
		a := arg(2)
		c.prepDst(pos, "ReLUInto", arg(0), a.shape)
		c.prepDst(pos, "ReLUInto mask", arg(1), a.shape)
		return tensorV(a.shape)
	case "AddRowInto":
		a, row := arg(1), arg(2)
		ar := c.requireRank(pos, a.shape, 2, "AddRowInto requires a matrix, got")
		if len(ar.Dims) == 2 {
			rowLen := c.resolveDim(row.shape.Elems())
			cols := c.resolveDim(ar.Dims[1])
			if rowLen.Eq(cols) == dataflow.False {
				c.fail(pos, "AddRowInto row length "+rowLen.String()+" does not match "+cols.String()+" columns")
			} else {
				c.unifyDim(row.shape.Elems(), ar.Dims[1])
			}
		}
		c.prepDst(pos, "AddRowInto", arg(0), a.shape)
		return tensorV(a.shape)
	case "TransposeInto":
		a := arg(1)
		ar := c.requireRank(pos, a.shape, 2, "TransposeInto requires a matrix, got")
		res := dataflow.ShapeOf(dataflow.Dim{}, dataflow.Dim{})
		if len(ar.Dims) == 2 {
			res = dataflow.ShapeOf(ar.Dims[1], ar.Dims[0])
		}
		c.prepDst(pos, "TransposeInto", arg(0), res)
		return tensorV(res)
	case "MatMulInto", "MatMulNTInto", "MatMulTNInto":
		ta := fn.Name() == "MatMulTNInto"
		tb := fn.Name() == "MatMulNTInto"
		res := c.matMulDims(pos, fn.Name(), arg(1), arg(2), ta, tb)
		c.prepDst(pos, fn.Name(), arg(0), res)
		return tensorV(res)
	case "SumAxesInto":
		a := arg(1)
		res := c.sumAxesModel(pkg, e, call, pos, "SumAxesInto", a.shape, 2)
		c.prepDst(pos, "SumAxesInto", arg(0), res)
		return tensorV(res)
	case "SumLikeInto":
		a, ref := arg(1), arg(2)
		c.requireBcast(pos, "SumLikeInto", a.shape, ref.shape)
		c.prepDst(pos, "SumLikeInto", arg(0), ref.shape)
		return tensorV(ref.shape)
	case "BroadcastToInto":
		a := arg(1)
		s, _ := c.variadicShape(pkg, e, call, 2)
		c.requireBcast(pos, "BroadcastToInto", s, a.shape)
		c.prepDst(pos, "BroadcastToInto", arg(0), s)
		return tensorV(s)
	case "BroadcastLikeInto":
		a, ref := arg(1), arg(2)
		c.requireBcast(pos, "BroadcastLikeInto", ref.shape, a.shape)
		c.prepDst(pos, "BroadcastLikeInto", arg(0), ref.shape)
		return tensorV(ref.shape)
	case "AddBcastInto", "SubBcastInto", "MulBcastInto":
		a, b := arg(1), arg(2)
		c.requireBcast(pos, fn.Name(), a.shape, b.shape)
		c.prepDst(pos, fn.Name(), arg(0), a.shape)
		return tensorV(a.shape)
	case "MulSumInto":
		a, b := arg(1), arg(2)
		c.requireSameShape(pos, "MulSumInto", a.shape, b.shape)
		res := c.sumAxesModel(pkg, e, call, pos, "MulSumInto", a.shape, 3)
		c.prepDst(pos, "MulSumInto", arg(0), res)
		return tensorV(res)
	case "MulSumLikeInto":
		a, b, ref := arg(1), arg(2), arg(3)
		c.requireSameShape(pos, "MulSumLikeInto", a.shape, b.shape)
		c.requireBcast(pos, "MulSumLikeInto", a.shape, ref.shape)
		c.prepDst(pos, "MulSumLikeInto", arg(0), ref.shape)
		return tensorV(ref.shape)
	case "ViewInto", "ViewLikeInto":
		dst, t := arg(0), arg(1)
		if dst.kind == aNil || (dst.kind == aTensor && dst.live) {
			c.fail(pos, fn.Name()+" needs an empty destination header")
		}
		var s dataflow.Shape
		if fn.Name() == "ViewInto" {
			s, _ = c.variadicShape(pkg, e, call, 2)
		} else {
			s = arg(2).shape
		}
		c.requireElemsEqual(pos, "cannot view "+c.resolveShape(t.shape).String()+" as "+c.resolveShape(s).String()+": element counts differ", t.shape, s)
		return tensorV(s)
	case "Im2col", "Im2colInto":
		xi := 0
		var dst absVal
		if fn.Name() == "Im2colInto" {
			dst, xi = arg(0), 1
		}
		x := arg(xi)
		g := arg(xi + 1)
		res := c.im2colModel(pos, x, g)
		if fn.Name() == "Im2colInto" {
			c.prepDst(pos, "Im2colInto", dst, res)
		}
		return tensorV(res)
	case "Col2im", "Col2imInto":
		ci := 0
		var dst absVal
		if fn.Name() == "Col2imInto" {
			dst, ci = arg(0), 1
		}
		cols := arg(ci)
		batch := dim(ci + 1)
		g := arg(ci + 2)
		res := c.col2imModel(pos, cols, batch, g)
		if fn.Name() == "Col2imInto" {
			c.prepDst(pos, "Col2imInto", dst, res)
		}
		return tensorV(res)
	case "ReadFrom":
		return tensorV(dataflow.TopShape())
	}
	for _, a := range call.Args {
		c.evalExpr(pkg, e, a)
	}
	return top()
}

// argIdxSameShape returns the index of the argument a same-shape method
// compares against its receiver (in-place scaled updates lead with a
// float coefficient).
func argIdxSameShape(name string) int {
	switch name {
	case "AxpyInPlace", "ScaleAddInPlace":
		return 1
	}
	return 0
}

func lower(s string) string {
	if s == "Reshape" {
		return "reshape"
	}
	return "view"
}

// sumAxesModel computes the reduced shape for SumAxes-family calls whose
// axes start at argument index from.
func (c *shapeCtx) sumAxesModel(pkg *Package, e *env, call *ast.CallExpr, pos token.Pos, op string, s dataflow.Shape, from int) dataflow.Shape {
	r := c.resolveShape(s)
	axesShape, known := c.variadicShape(pkg, e, call, from)
	if !known || axesShape.Dims == nil {
		if r.Dims == nil {
			return dataflow.TopShape()
		}
		dims := make([]dataflow.Dim, len(r.Dims))
		return dataflow.ShapeOf(dims...)
	}
	if r.Dims == nil {
		return dataflow.TopShape()
	}
	out := make([]dataflow.Dim, len(r.Dims))
	copy(out, r.Dims)
	prev := int64(-1)
	for _, axd := range axesShape.Dims {
		if !axd.IsConst() {
			return dataflow.ShapeOf(make([]dataflow.Dim, len(r.Dims))...)
		}
		ax := axd.C
		if ax < 0 || int(ax) >= len(r.Dims) {
			c.fail(pos, op+" axis "+strconv.FormatInt(ax, 10)+" out of range for shape "+r.String())
			return dataflow.ShapeOf(make([]dataflow.Dim, len(r.Dims))...)
		}
		if ax <= prev {
			c.fail(pos, op+" axes must be sorted and unique")
			return dataflow.ShapeOf(make([]dataflow.Dim, len(r.Dims))...)
		}
		prev = ax
		out[ax] = dataflow.DimConst(1)
	}
	return dataflow.ShapeOf(out...)
}

// im2colModel mirrors Im2colInto's validation and result shape. The
// rank-4 input constraint holds regardless of whether the geometry is
// statically known.
func (c *shapeCtx) im2colModel(pos token.Pos, x absVal, g absVal) dataflow.Shape {
	xs := c.requireRank(pos, x.shape, 4, "Im2col input is not a rank-4 NHWC tensor:")
	if g.kind != aGeom {
		return dataflow.ShapeOf(dataflow.Dim{}, dataflow.Dim{})
	}
	geo := g.geom
	if len(xs.Dims) == 4 {
		for i, want := range []dataflow.Dim{geo.inH, geo.inW, geo.channel} {
			if xs.Dims[i+1].Eq(c.resolveDim(want)) == dataflow.False {
				c.fail(pos, "Im2col input "+xs.String()+" does not match geometry")
				break
			}
			c.unifyDim(xs.Dims[i+1], want)
		}
	}
	oh, ow := geo.outDim(c.resolveDim(geo.inH)), geo.outDim(c.resolveDim(geo.inW))
	cols := c.resolveDim(geo.kernel).Mul(c.resolveDim(geo.kernel)).Mul(c.resolveDim(geo.channel))
	var b dataflow.Dim
	if len(xs.Dims) == 4 {
		b = xs.Dims[0]
	}
	return dataflow.ShapeOf(b.Mul(oh).Mul(ow), cols)
}

// col2imModel mirrors Col2imInto's validation and result shape. As with
// im2colModel, the rank-2 input constraint is unconditional.
func (c *shapeCtx) col2imModel(pos token.Pos, cols absVal, batch dataflow.Dim, g absVal) dataflow.Shape {
	cs := c.requireRank(pos, cols.shape, 2, "Col2im input is not a patch matrix:")
	if g.kind != aGeom {
		return dataflow.ShapeOf(batch, dataflow.Dim{}, dataflow.Dim{}, dataflow.Dim{})
	}
	geo := g.geom
	oh, ow := geo.outDim(c.resolveDim(geo.inH)), geo.outDim(c.resolveDim(geo.inW))
	nc := c.resolveDim(geo.kernel).Mul(c.resolveDim(geo.kernel)).Mul(c.resolveDim(geo.channel))
	if len(cs.Dims) == 2 {
		wantRows := batch.Mul(oh).Mul(ow)
		if cs.Dims[0].Eq(wantRows) == dataflow.False || cs.Dims[1].Eq(nc) == dataflow.False {
			c.fail(pos, "Col2im input "+cs.String()+" does not match batch and geometry")
		} else {
			c.unifyDim(cs.Dims[1], nc)
		}
	}
	return dataflow.ShapeOf(batch, c.resolveDim(geo.inH), c.resolveDim(geo.inW), c.resolveDim(geo.channel))
}

// --- interprocedural summaries ---

// summarize interprets the body of a module function at a call site,
// sandboxing its constraints and renaming escaping symbols per site.
func (c *shapeCtx) summarize(pkg *Package, e *env, call *ast.CallExpr, fn *types.Func) absVal {
	info, ok := c.pass.Prog.Decls[fn]
	if !ok || info.Decl.Body == nil || !c.guard.enter(fn) {
		for _, a := range call.Args {
			c.evalExpr(pkg, e, a)
		}
		return top()
	}
	defer c.guard.exit(fn)
	// Evaluate arguments in the caller's context (their checks fire here).
	args := make([]absVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.resolveVal(c.evalExpr(pkg, e, a))
	}
	var recvVal absVal = top()
	if recvNamed(fn) != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvVal = c.resolveVal(c.evalExpr(pkg, e, sel.X))
		}
	}

	sub := &shapeCtx{
		pass:    c.pass,
		subst:   make(map[string]dataflow.Shape),
		dsubst:  make(map[string]dataflow.Dim),
		created: make(map[string]bool),
		assume:  true,
		guard:   c.guard,
	}
	// Provable violations inside the callee (given the caller's concrete
	// arguments) are reported at the call site.
	if c.report != nil {
		sub.report = func(_ token.Pos, msg string) { c.report(call.Pos(), fn.Name()+": "+msg) }
	}
	results := sub.interpFunc(info, recvVal, args, call.Ellipsis != token.NoPos)
	if sub.violated {
		c.violated = true
	}
	c.nodes = append(c.nodes, sub.nodes...)

	if len(results) == 0 {
		return top()
	}
	out := results[0]
	// Rename the callee's private unbound symbols per call site so two
	// sites never share spuriously-comparable symbols.
	prefix := "c" + strconv.Itoa(int(call.Pos())) + "/"
	for name := range sub.created {
		if _, bound := sub.dsubst[name]; !bound {
			sub.dsubst[name] = dataflow.DimSym(prefix + name)
		}
		if _, bound := sub.subst[name]; !bound {
			sub.subst[name] = dataflow.SymShape(prefix + name)
		}
	}
	return sub.resolveVal(out)
}

// bindParams maps a function's parameters (and receiver) to abstract
// values, minting fresh symbols for untracked tensor/value params.
func (c *shapeCtx) bindParams(info FuncInfo, recv absVal, args []absVal, spread bool) *env {
	e := newEnv()
	decl := info.Decl
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if obj := identObj(info.Pkg.Info, decl.Recv.List[0].Names[0]); obj != nil {
			e.set(obj, recv)
		}
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		_, variadic := field.Type.(*ast.Ellipsis)
		for _, name := range names {
			obj := identObj(info.Pkg.Info, name)
			var v absVal
			switch {
			case args == nil:
				// nil args is the "interpret this function in isolation"
				// mode: every parameter defaults to a fresh symbol.
			case variadic && !spread:
				// Collect the trailing args as an aDims when they are ints.
				if vv, ok := obj.(*types.Var); ok {
					if sl, isSlice := vv.Type().Underlying().(*types.Slice); isSlice {
						if basic, isBasic := sl.Elem().(*types.Basic); isBasic && basic.Kind() == types.Int {
							dims := make([]dataflow.Dim, 0, len(args)-i)
							for j := i; j < len(args); j++ {
								if args[j].kind == aInt {
									dims = append(dims, args[j].dim)
								} else {
									dims = append(dims, dataflow.Dim{})
								}
							}
							v = absVal{kind: aDims, dims: dims}
						}
					}
				}
				if v.kind == aTop && len(args) > i {
					v = top()
				}
			case i < len(args):
				v = args[i]
			}
			if obj != nil {
				v = c.defaultParam(obj, name.Pos(), v)
				e.set(obj, v)
			}
			i++
		}
	}
	return e
}

// defaultParam upgrades an untracked argument to a fresh symbolic value
// matching the parameter's type, so callee-side constraints can still
// relate the parameter to itself.
func (c *shapeCtx) defaultParam(obj types.Object, pos token.Pos, v absVal) absVal {
	if v.kind != aTop {
		return v
	}
	t := obj.Type()
	switch {
	case isTensor(t):
		return tensorU(c.freshShapeSym(pos))
	case isNamedIn(t, "Value", "internal/autodiff"):
		return valueV(c.freshShapeSym(pos))
	case isNamedIn(t, "ConvGeom", "internal/tensor"):
		return top()
	default:
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Kind() == types.Int {
			return intV(c.freshDimSym(pos, 0))
		}
	}
	return top()
}

// interpFunc interprets a function body structurally (straight-line
// statements and if/else; loops and other constructs abort the summary)
// and returns the joined result rows.
func (c *shapeCtx) interpFunc(info FuncInfo, recv absVal, args []absVal, spread bool) []absVal {
	e := c.bindParams(info, recv, args, spread)
	rows, _, ok := c.interpStmts(info.Pkg, e, info.Decl.Body.List)
	if !ok {
		return nil
	}
	return joinRows(rows)
}

func joinRows(rows [][]absVal) []absVal {
	var out []absVal
	for _, row := range rows {
		if out == nil {
			out = append([]absVal(nil), row...)
			continue
		}
		if len(row) != len(out) {
			return nil
		}
		for i := range out {
			out[i] = joinVal(out[i], row[i])
		}
	}
	return out
}

// interpStmts executes a statement list. It returns the collected return
// rows, whether control can fall off the end, and whether interpretation
// stayed within the supported subset.
func (c *shapeCtx) interpStmts(pkg *Package, e *env, list []ast.Stmt) (rows [][]absVal, fallsThrough bool, ok bool) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.AssignStmt:
			c.interpAssign(pkg, e, s)
		case *ast.DeclStmt:
			if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
				for _, spec := range gd.Specs {
					if vs, isVS := spec.(*ast.ValueSpec); isVS {
						c.interpValueSpec(pkg, e, vs)
					}
				}
			}
		case *ast.ExprStmt:
			if call, isCall := ast.Unparen(s.X).(*ast.CallExpr); isCall {
				if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "panic" {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						return rows, false, true // path dies
					}
				}
			}
			c.evalExpr(pkg, e, s.X)
		case *ast.ReturnStmt:
			row := make([]absVal, len(s.Results))
			for i, r := range s.Results {
				row[i] = c.resolveVal(c.evalExpr(pkg, e, r))
			}
			rows = append(rows, row)
			return rows, false, true
		case *ast.IfStmt:
			r, ft, sok := c.interpIf(pkg, e, s)
			if !sok {
				return nil, false, false
			}
			rows = append(rows, r...)
			if !ft {
				return rows, false, true
			}
		case *ast.BlockStmt:
			r, ft, sok := c.interpStmts(pkg, e, s.List)
			if !sok {
				return nil, false, false
			}
			rows = append(rows, r...)
			if !ft {
				return rows, false, true
			}
		default:
			// Loops, switches, defers, goroutines: beyond the summary
			// subset. The summary is abandoned rather than guessed at.
			return nil, false, false
		}
	}
	return rows, true, true
}

func (c *shapeCtx) interpIf(pkg *Package, e *env, s *ast.IfStmt) (rows [][]absVal, fallsThrough bool, ok bool) {
	if s.Init != nil {
		if as, isAssign := s.Init.(*ast.AssignStmt); isAssign {
			c.interpAssign(pkg, e, as)
		}
	}
	c.evalExpr(pkg, e, s.Cond)
	thenEnv := e.clone()
	thenRows, thenFT, thenOK := c.interpStmts(pkg, thenEnv, s.Body.List)
	if !thenOK {
		return nil, false, false
	}
	rows = append(rows, thenRows...)
	if s.Else == nil {
		if thenFT {
			// Join the then-branch state back into the fall-through env.
			merged := joinEnv(thenEnv, e)
			e.vars = merged.vars
		}
		return rows, true, true
	}
	elseEnv := e.clone()
	var elseRows [][]absVal
	var elseFT, elseOK bool
	switch els := s.Else.(type) {
	case *ast.BlockStmt:
		elseRows, elseFT, elseOK = c.interpStmts(pkg, elseEnv, els.List)
	case *ast.IfStmt:
		elseRows, elseFT, elseOK = c.interpIf(pkg, elseEnv, els)
	default:
		elseOK = false
	}
	if !elseOK {
		return nil, false, false
	}
	rows = append(rows, elseRows...)
	switch {
	case thenFT && elseFT:
		merged := joinEnv(thenEnv, elseEnv)
		e.vars = merged.vars
		return rows, true, true
	case thenFT:
		e.vars = thenEnv.vars
		return rows, true, true
	case elseFT:
		e.vars = elseEnv.vars
		return rows, true, true
	default:
		return rows, false, true
	}
}

func (c *shapeCtx) interpValueSpec(pkg *Package, e *env, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		var v absVal
		if i < len(vs.Values) {
			v = c.resolveVal(c.evalExpr(pkg, e, vs.Values[i]))
		} else if obj := identObj(pkg.Info, name); obj != nil {
			// var t *tensor.Tensor (zero value) is nil.
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				v = absVal{kind: aNil}
			}
		}
		if obj := identObj(pkg.Info, name); obj != nil {
			e.set(obj, v)
		}
	}
}

// interpAssign handles the assignment forms the evaluator understands:
// plain variable (re)binding, v.Data = tensor, and v.inputsArr[i] = val.
func (c *shapeCtx) interpAssign(pkg *Package, e *env, s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		// Multi-value: evaluate the RHS for checks, drop precision.
		for _, r := range s.Rhs {
			c.evalExpr(pkg, e, r)
		}
		for _, l := range s.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				if obj := identObj(pkg.Info, id); obj != nil {
					e.set(obj, top())
				}
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		v := c.resolveVal(c.evalExpr(pkg, e, s.Rhs[i]))
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			if obj := identObj(pkg.Info, lhs); obj != nil {
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					e.set(obj, v)
				} else {
					e.set(obj, top()) // +=, *= on tracked ints: give up
				}
			}
		case *ast.SelectorExpr:
			base := c.evalExpr(pkg, e, lhs.X)
			if base.kind == aValue && lhs.Sel.Name == "Data" {
				// v.Data = <tensor>: the node's result shape.
				if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
					if obj := identObj(pkg.Info, id); obj != nil {
						nv := base
						nv.shape = v.shape
						if nv.node != nil {
							nv.node.result = v.shape
						}
						e.set(obj, nv)
					}
				}
			}
		case *ast.IndexExpr:
			// v.inputsArr[i] = val (ReLU's stashed mask).
			if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "inputsArr" {
				base := c.evalExpr(pkg, e, sel.X)
				if base.kind == aValue && base.node != nil {
					if idx := c.dimOf(pkg, e, lhs.Index); idx.IsConst() {
						if base.node.extra == nil {
							base.node.extra = make(map[int]absVal)
						}
						base.node.extra[int(idx.C)] = v
					}
				}
			}
		}
	}
}

// evalNodeInput resolves n.inputsArr[i] / n.inputs[i] during VJP
// evaluation; it is consulted from the IndexExpr path of evalExpr via
// the marker returned by evalSelector.
func (c *shapeCtx) evalNodeInput(pkg *Package, e *env, x *ast.IndexExpr) (absVal, bool) {
	sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "inputsArr" && sel.Sel.Name != "inputs") {
		return absVal{}, false
	}
	base := c.evalExpr(pkg, e, sel.X)
	if base.kind != aValue || base.node == nil {
		return absVal{}, false
	}
	idx := c.dimOf(pkg, e, x.Index)
	if !idx.IsConst() {
		return top(), true
	}
	return base.node.input(int(idx.C)), true
}
