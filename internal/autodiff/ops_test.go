package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quickdrop/internal/tensor"
)

const (
	fdEps = 1e-5
	fdTol = 1e-5
)

func randT(seed int64, stddev float64, shape ...int) *tensor.Tensor {
	return tensor.Randn(rand.New(rand.NewSource(seed)), stddev, shape...)
}

func TestScalarChain(t *testing.T) {
	// y = (2x + 1)², dy/dx = 4(2x+1); at x=3, y=49, dy/dx=28.
	x := Var(tensor.FromSlice([]float64{3}, 1))
	y := PowConst(AddConst(Scale(x, 2), 1), 2)
	if y.Item() != 49 {
		t.Fatalf("y = %g, want 49", y.Item())
	}
	g := MustGrad(y, []*Value{x})[0]
	if g.Item() != 28 {
		t.Fatalf("dy/dx = %g, want 28", g.Item())
	}
}

func TestGradSharedSubexpression(t *testing.T) {
	// y = x*x + x ⇒ dy/dx = 2x + 1 (checks gradient accumulation on fan-out).
	x := Var(tensor.FromSlice([]float64{5}, 1))
	y := Add(Mul(x, x), x)
	g := MustGrad(y, []*Value{x})[0]
	if g.Item() != 11 {
		t.Fatalf("dy/dx = %g, want 11", g.Item())
	}
}

func TestGradUnusedInputIsZero(t *testing.T) {
	x := Var(tensor.FromSlice([]float64{1, 2}, 2))
	z := Var(tensor.FromSlice([]float64{4}, 1))
	y := SumAll(x)
	gs := MustGrad(y, []*Value{x, z})
	if gs[1].Data.Sum() != 0 {
		t.Fatal("unused input must receive zero gradient")
	}
	if !gs[1].Data.SameShape(z.Data) {
		t.Fatal("zero gradient must match input shape")
	}
}

func TestGradRejectsNonScalar(t *testing.T) {
	x := Var(tensor.Ones(2, 2))
	if _, err := Grad(x, []*Value{x}); err == nil {
		t.Fatal("expected error for non-scalar output")
	}
}

func TestConstantsDoNotTrack(t *testing.T) {
	a := Const(tensor.Ones(2))
	b := Const(tensor.Ones(2))
	c := Mul(a, b)
	if c.RequiresGrad() {
		t.Fatal("op on constants must not require grad")
	}
}

// Finite-difference checks for each primitive and common compositions.
// numericCase is one row of the numeric gradient tables: f maps the
// inputs, drawn with the given shapes from seed, to a scalar.
type numericCase struct {
	name   string
	shapes [][]int
	f      func(xs []*Value) *Value
	seed   int64
}

// inputs draws the row's input tensors.
func (tc numericCase) inputs() []*tensor.Tensor {
	xs := make([]*tensor.Tensor, len(tc.shapes))
	for i, sh := range tc.shapes {
		xs[i] = randT(tc.seed*100+int64(i), 1, sh...)
	}
	return xs
}

// checkFirstOrder compares the row's analytic gradient with central
// differences of f.
func checkFirstOrder(t *testing.T, tc numericCase) {
	t.Helper()
	if err := CheckGradient(tc.f, tc.inputs(), fdEps, fdTol); err != nil {
		t.Fatal(err)
	}
}

// dot is ⟨a, b⟩ as a scalar node of shape [1].
func dot(a, b *Value) *Value {
	n := a.Data.Len()
	return Reshape(MulSum(Reshape(a, 1, n), Reshape(b, 1, n), 1), 1)
}

// hvp returns the Hessian-vector products H·v of a scalar loss with
// respect to params, vs aligned with params, by differentiating the
// gradient graph: H·v = ∇⟨∇loss, v⟩.
func hvp(loss *Value, params []*Value, vs []*tensor.Tensor) []*Value {
	grads := MustGrad(loss, params)
	inner := dot(grads[0], Const(vs[0]))
	for i := 1; i < len(grads); i++ {
		inner = Add(inner, dot(grads[i], Const(vs[i])))
	}
	return MustGrad(inner, params)
}

// sigmoid is 1/(1+e^{-a}) and tanh is 2σ(2a) − 1, composed from the
// primitives: smooth functions with a non-zero Hessian.
func sigmoid(a *Value) *Value { return PowConst(AddConst(Exp(Neg(a)), 1), -1) }

func tanh(a *Value) *Value { return AddConst(Scale(sigmoid(Scale(a, 2)), 2), -1) }

// checkSecondOrder compares the row's Hessian-vector product H·v, built by
// differentiating the gradient graph (hvp), with central differences of
// the analytic directional derivative ⟨∇f, v⟩ along a fixed random v. A
// VJP whose own graph differentiates wrongly, or to the wrong shape,
// fails here even when its first-order values are right.
func checkSecondOrder(t *testing.T, tc numericCase) {
	t.Helper()
	xs := tc.inputs()
	vs := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		vs[i] = randT(tc.seed*100+50+int64(i), 1, x.Shape()...)
	}
	directional := func(pts []*tensor.Tensor) float64 {
		vars := make([]*Value, len(pts))
		for i, p := range pts {
			vars[i] = Var(p)
		}
		d := 0.0
		for i, g := range MustGrad(tc.f(vars), vars) {
			d += g.Data.Dot(vs[i])
		}
		return d
	}
	vars := make([]*Value, len(xs))
	for i, x := range xs {
		vars[i] = Var(x.Clone())
	}
	hv := hvp(tc.f(vars), vars, vs)
	for i, x := range xs {
		if !hv[i].Data.SameShape(x) {
			t.Fatalf("H·v for input %d has shape %s, want %s", i, hv[i].Data.ShapeString(), x.ShapeString())
		}
		for j := range x.Data() {
			up := clonePoints(xs)
			up[i].Data()[j] += fdEps
			down := clonePoints(xs)
			down[i].Data()[j] -= fdEps
			numeric := (directional(up) - directional(down)) / (2 * fdEps)
			if got := hv[i].Data.Data()[j]; math.Abs(got-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("H·v at input %d elem %d = %.8g, numeric %.8g", i, j, got, numeric)
			}
		}
	}
}

// softmax normalizes the rows of a after shifting them by RowMax, a
// constant: softmax is shift-invariant, so cutting the gradient through
// the shift is exact.
func softmax(a *Value) *Value {
	e := Exp(Sub(a, BroadcastLike(RowMax(a), a.Data)))
	return Div(e, BroadcastLike(SumAxes(e, 1), a.Data))
}

func TestGradientNumericAgreement(t *testing.T) {
	tests := []numericCase{
		{"add", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value { return SumAll(Add(xs[0], xs[1])) }, 1},
		{"mul", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value { return SumAll(Mul(xs[0], xs[1])) }, 2},
		{"div", [][]int{{4}, {4}}, func(xs []*Value) *Value {
			return SumAll(Div(xs[0], AddConst(PowConst(xs[1], 2), 1)))
		}, 3},
		{"scale-neg", [][]int{{3}}, func(xs []*Value) *Value { return SumAll(Neg(Scale(xs[0], 2.5))) }, 4},
		{"pow3", [][]int{{4}}, func(xs []*Value) *Value { return SumAll(PowConst(xs[0], 3)) }, 5},
		{"exp", [][]int{{4}}, func(xs []*Value) *Value { return SumAll(Exp(xs[0])) }, 6},
		{"log-of-positive", [][]int{{4}}, func(xs []*Value) *Value {
			return SumAll(Log(AddConst(PowConst(xs[0], 2), 1)))
		}, 7},
		{"sqrt-of-positive", [][]int{{4}}, func(xs []*Value) *Value {
			return SumAll(Sqrt(AddConst(PowConst(xs[0], 2), 0.5)))
		}, 8},
		{"matmul", [][]int{{3, 4}, {4, 2}}, func(xs []*Value) *Value { return SumAll(MatMul(xs[0], xs[1])) }, 9},
		{"matmul-quadratic", [][]int{{2, 3}}, func(xs []*Value) *Value {
			return SumAll(MatMulNT(xs[0], xs[0]))
		}, 10},
		{"reshape", [][]int{{2, 6}}, func(xs []*Value) *Value {
			return SumAll(PowConst(Reshape(xs[0], 3, 4), 2))
		}, 12},
		{"sumaxes-broadcast", [][]int{{3, 4}}, func(xs []*Value) *Value {
			m := Scale(SumAxes(xs[0], 1), 0.25) // row means [3,1]
			return SumAll(PowConst(Sub(xs[0], BroadcastTo(m, 3, 4)), 2))
		}, 13},
		{"mean", [][]int{{5}}, func(xs []*Value) *Value {
			// The batch mean CrossEntropy takes.
			return Scale(SumAll(PowConst(xs[0], 2)), 1.0/5)
		}, 14},
		{"dot-cosine", [][]int{{4}, {4}}, func(xs []*Value) *Value {
			// 1 - cosine similarity, the distillation distance kernel.
			num := dot(xs[0], xs[1])
			den := Sqrt(AddConst(Mul(dot(xs[0], xs[0]), dot(xs[1], xs[1])), 1e-6))
			return Sub(Scalar(1), Div(num, den))
		}, 16},
		{"im2col", [][]int{{1, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(Im2col(xs[0], g), 2))
		}, 17},
		{"col2im", [][]int{{4, 4}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 3, InW: 3, Channel: 1}
			return SumAll(PowConst(Col2im(xs[0], 1, g), 2))
		}, 18},
		{"avgpool", [][]int{{2, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 2, Stride: 2, Pad: 0, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(AvgPool(xs[0], g), 2))
		}, 68},
		{"avgpool-padded-overlapping", [][]int{{1, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(AvgPool(xs[0], g), 2))
		}, 69},
		{"relu", [][]int{{6}}, func(xs []*Value) *Value {
			// Offset keeps values away from the kink where FD is invalid.
			return SumAll(PowConst(ReLU(AddConst(xs[0], 0.3)), 2))
		}, 19},
		{"broadcastlike", [][]int{{1, 4}, {3, 4}}, func(xs []*Value) *Value {
			return SumAll(Mul(BroadcastLike(xs[0], xs[1].Data), xs[1]))
		}, 32},
		{"rowmax-softmax", [][]int{{3, 4}, {3, 4}}, func(xs []*Value) *Value { return SumAll(Mul(softmax(xs[0]), xs[1])) }, 33},
		{"sigmoid", [][]int{{5}}, func(xs []*Value) *Value { return SumAll(sigmoid(xs[0])) }, 37},
		{"tanh", [][]int{{5}}, func(xs []*Value) *Value { return SumAll(tanh(xs[0])) }, 38},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkFirstOrder(t, tc) })
	}
}

// Second-order: d²/dx² of known functions via Grad-of-Grad.
func TestSecondOrderScalar(t *testing.T) {
	// y = x³ ⇒ y'' = 6x; at x = 2 → 12.
	x := Var(tensor.FromSlice([]float64{2}, 1))
	y := PowConst(x, 3)
	dy := MustGrad(y, []*Value{x})[0]
	if math.Abs(dy.Item()-12) > 1e-10 {
		t.Fatalf("y' = %g, want 12", dy.Item())
	}
	d2y := MustGrad(dy, []*Value{x})[0]
	if math.Abs(d2y.Item()-12) > 1e-10 {
		t.Fatalf("y'' = %g, want 12", d2y.Item())
	}
}

func TestSecondOrderMixedPartial(t *testing.T) {
	// f = x²y ⇒ ∂f/∂x = 2xy, ∂²f/∂x∂y = 2x. At x=3, y=5: 6.
	x := Var(tensor.FromSlice([]float64{3}, 1))
	y := Var(tensor.FromSlice([]float64{5}, 1))
	f := Mul(Mul(x, x), y)
	fx := MustGrad(f, []*Value{x})[0]
	if fx.Item() != 30 {
		t.Fatalf("∂f/∂x = %g, want 30", fx.Item())
	}
	fxy := MustGrad(fx, []*Value{y})[0]
	if fxy.Item() != 6 {
		t.Fatalf("∂²f/∂x∂y = %g, want 6", fxy.Item())
	}
}

// The signature QuickDrop computation: gradient of a function of a gradient.
// With L(θ) = ½‖θ⊙s‖², ∇θL = θ⊙s², and for m(s) = Σ∇θL the gradient w.r.t.
// s is 2θ⊙s.
func TestGradOfGradWrtOtherVariable(t *testing.T) {
	theta := Var(tensor.FromSlice([]float64{1, 2, 3}, 3))
	s := Var(tensor.FromSlice([]float64{0.5, -1, 2}, 3))
	loss := Scale(SumAll(PowConst(Mul(theta, s), 2)), 0.5)
	gradTheta := MustGrad(loss, []*Value{theta})[0]
	m := SumAll(gradTheta)
	gs := MustGrad(m, []*Value{s})[0]
	want := []float64{2 * 1 * 0.5, 2 * 2 * -1, 2 * 3 * 2}
	for i, w := range want {
		if math.Abs(gs.Data.Data()[i]-w) > 1e-10 {
			t.Fatalf("grad-of-grad elem %d = %g, want %g", i, gs.Data.Data()[i], w)
		}
	}
}

// Numeric check of second-order quantities: every primitive of ops.go
// (the fused ones are in TestFusedSecondOrderNumeric) inside a
// loss whose gradient depends on it, so the VJP's own graph is
// differentiated; linear ops are raised to a power for that reason.
func TestSecondOrderNumeric(t *testing.T) {
	sq := func(v *Value) *Value { return SumAll(PowConst(v, 2)) }
	tests := []numericCase{
		{"exp-square", [][]int{{1}}, func(xs []*Value) *Value { return Exp(PowConst(xs[0], 2)) }, 40},
		{"add", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value { return sq(Add(xs[0], xs[1])) }, 41},
		{"mul", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value { return sq(Mul(xs[0], xs[1])) }, 42},
		{"div", [][]int{{4}, {4}}, func(xs []*Value) *Value {
			return SumAll(Div(xs[0], AddConst(PowConst(xs[1], 2), 1)))
		}, 43},
		{"scale-neg", [][]int{{3}}, func(xs []*Value) *Value { return sq(Neg(Scale(xs[0], 2.5))) }, 44},
		{"pow3", [][]int{{4}}, func(xs []*Value) *Value { return SumAll(PowConst(xs[0], 3)) }, 45},
		{"exp", [][]int{{4}}, func(xs []*Value) *Value { return SumAll(Exp(xs[0])) }, 46},
		{"log-of-positive", [][]int{{4}}, func(xs []*Value) *Value {
			return SumAll(Log(AddConst(PowConst(xs[0], 2), 1)))
		}, 47},
		{"sqrt-of-positive", [][]int{{4}}, func(xs []*Value) *Value {
			return SumAll(Sqrt(AddConst(PowConst(xs[0], 2), 0.5)))
		}, 48},
		{"relu", [][]int{{6}}, func(xs []*Value) *Value { return sq(ReLU(AddConst(xs[0], 0.3))) }, 49},
		{"matmul", [][]int{{3, 4}, {4, 2}}, func(xs []*Value) *Value { return sq(MatMul(xs[0], xs[1])) }, 50},
		{"reshape", [][]int{{2, 6}, {3, 4}}, func(xs []*Value) *Value {
			return sq(Mul(Reshape(xs[0], 3, 4), xs[1]))
		}, 52},
		{"sumaxes", [][]int{{3, 4}}, func(xs []*Value) *Value { return sq(SumAxes(PowConst(xs[0], 2), 1)) }, 53},
		{"broadcastto", [][]int{{3, 1}, {3, 4}}, func(xs []*Value) *Value {
			return sq(Mul(BroadcastTo(xs[0], 3, 4), xs[1]))
		}, 54},
		{"broadcastlike", [][]int{{1, 4}, {3, 4}}, func(xs []*Value) *Value {
			return sq(Mul(BroadcastLike(xs[0], xs[1].Data), xs[1]))
		}, 55},
		{"mean", [][]int{{5}}, func(xs []*Value) *Value { return PowConst(Scale(SumAll(PowConst(xs[0], 2)), 1.0/5), 2) }, 56},
		{"dot", [][]int{{4}, {4}}, func(xs []*Value) *Value { return PowConst(dot(xs[0], xs[1]), 2) }, 58},
		{"im2col", [][]int{{1, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(Im2col(xs[0], g), 3))
		}, 59},
		{"col2im", [][]int{{4, 4}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 3, InW: 3, Channel: 1}
			return SumAll(PowConst(Col2im(xs[0], 1, g), 3))
		}, 60},
		{"avgpool", [][]int{{2, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 2, Stride: 2, Pad: 0, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(AvgPool(xs[0], g), 3))
		}, 70},
		{"avgpool-padded-overlapping", [][]int{{1, 4, 4, 2}}, func(xs []*Value) *Value {
			g := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
			return SumAll(PowConst(AvgPool(xs[0], g), 3))
		}, 71},
		{"rowmax-softmax", [][]int{{3, 4}, {3, 4}}, func(xs []*Value) *Value { return sq(Mul(softmax(xs[0]), xs[1])) }, 61},
		{"sigmoid", [][]int{{5}}, func(xs []*Value) *Value { return SumAll(sigmoid(xs[0])) }, 65},
		{"tanh", [][]int{{5}}, func(xs []*Value) *Value { return SumAll(tanh(xs[0])) }, 66},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkSecondOrder(t, tc) })
	}
}

// Property: Grad of a linear functional w.r.t. its input recovers the
// coefficient tensor exactly, regardless of shape.
func TestLinearGradProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		coef := tensor.Randn(r, 1, n)
		x := Var(tensor.Randn(r, 1, n))
		y := dot(Const(coef), x)
		g := MustGrad(y, []*Value{x})[0]
		for i := range coef.Data() {
			if math.Abs(g.Data.Data()[i]-coef.Data()[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: gradients are linear in the output — Grad(a·f + b·g) =
// a·Grad(f) + b·Grad(g).
func TestGradLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := r.NormFloat64(), r.NormFloat64()
		xt := tensor.Randn(r, 1, 4)

		xm := Var(xt.Clone())
		mixed := Add(Scale(SumAll(PowConst(xm, 2)), a), Scale(SumAll(Exp(xm)), b))
		gmix := MustGrad(mixed, []*Value{xm})[0].Data.Data()

		x := Var(xt.Clone())
		g1 := MustGrad(SumAll(PowConst(x, 2)), []*Value{x})[0]
		x2 := Var(xt.Clone())
		g2 := MustGrad(SumAll(Exp(x2)), []*Value{x2})[0]
		for i := range gmix {
			want := a*g1.Data.Data()[i] + b*g2.Data.Data()[i]
			if math.Abs(gmix[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestItemPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Const(tensor.Ones(2)).Item()
}
