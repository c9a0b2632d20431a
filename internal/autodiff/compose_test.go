package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"quickdrop/internal/tensor"
)

func TestSigmoidTanhValuesAndGradients(t *testing.T) {
	x0 := Const(tensor.FromSlice([]float64{0}, 1))
	if math.Abs(sigmoid(x0).Item()-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %g", sigmoid(x0).Item())
	}
	if math.Abs(tanh(x0).Item()) > 1e-12 {
		t.Fatalf("tanh(0) = %g", tanh(x0).Item())
	}
	xv := randT(42, 0.8, 5)
	if err := CheckGradient(func(xs []*Value) *Value {
		return SumAll(sigmoid(xs[0]))
	}, []*tensor.Tensor{xv}, fdEps, fdTol); err != nil {
		t.Fatal(err)
	}
	if err := CheckGradient(func(xs []*Value) *Value {
		return SumAll(tanh(xs[0]))
	}, []*tensor.Tensor{xv}, fdEps, fdTol); err != nil {
		t.Fatal(err)
	}
	// Values match math.Tanh.
	got := tanh(Const(xv)).Data
	for i, v := range xv.Data() {
		if math.Abs(got.Data()[i]-math.Tanh(v)) > 1e-12 {
			t.Fatalf("tanh(%g) = %g", v, got.Data()[i])
		}
	}
}

func TestHVPQuadratic(t *testing.T) {
	// loss = ½ xᵀAx with A = diag(2, 6) (via elementwise weights) has
	// Hessian diag(2, 6); H·v is elementwise.
	x := Var(tensor.FromSlice([]float64{1, 1}, 2))
	w := Const(tensor.FromSlice([]float64{2, 6}, 2))
	loss := Scale(SumAll(Mul(w, Mul(x, x))), 0.5)
	v := tensor.FromSlice([]float64{1, -1}, 2)
	hv := hvp(loss, []*Value{x}, []*tensor.Tensor{v})
	if math.Abs(hv[0].Data.Data()[0]-2) > 1e-10 || math.Abs(hv[0].Data.Data()[1]+6) > 1e-10 {
		t.Fatalf("Hv = %v, want [2 -6]", hv[0].Data.Data())
	}
}

func TestHVPMatchesFiniteDifferenceOfGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	xt := tensor.Randn(rng, 0.5, 3)
	v := tensor.Randn(rng, 1, 3)

	gradAt := func(pt *tensor.Tensor) []float64 {
		x := Var(pt.Clone())
		loss := SumAll(Exp(Mul(x, x)))
		return MustGrad(loss, []*Value{x})[0].Data.Data()
	}
	x := Var(xt.Clone())
	loss := SumAll(Exp(Mul(x, x)))
	hv := hvp(loss, []*Value{x}, []*tensor.Tensor{v})
	const eps = 1e-5
	up := gradAt(xt.Clone().AxpyInPlace(eps, v))
	down := gradAt(xt.Clone().AxpyInPlace(-eps, v))
	for i := range up {
		numeric := (up[i] - down[i]) / (2 * eps)
		if math.Abs(hv[0].Data.Data()[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("Hv[%d] = %g, numeric %g", i, hv[0].Data.Data()[i], numeric)
		}
	}
}

// A graph thousands of nodes deep must backpropagate without stack
// overflow (topological ordering is iterative).
func TestDeepGraphBackward(t *testing.T) {
	x := Var(tensor.FromSlice([]float64{1}, 1))
	y := x
	const depth = 5000
	for i := 0; i < depth; i++ {
		y = AddConst(y, 1e-6)
	}
	g := MustGrad(SumAll(y), []*Value{x})[0]
	if g.Item() != 1 {
		t.Fatalf("deep chain gradient = %g, want 1", g.Item())
	}
}

// Gradient accumulation across a wide fan-out: y = Σᵢ (x + i·ε) should
// have dy/dx equal to the fan-out width.
func TestWideFanOutAccumulation(t *testing.T) {
	x := Var(tensor.FromSlice([]float64{2}, 1))
	total := Scalar(0)
	const width = 200
	for i := 0; i < width; i++ {
		total = Add(total, AddConst(x, float64(i)))
	}
	g := MustGrad(total, []*Value{x})[0]
	if g.Item() != width {
		t.Fatalf("fan-out gradient = %g, want %d", g.Item(), width)
	}
}
