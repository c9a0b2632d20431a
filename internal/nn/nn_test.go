package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

func TestOneHot(t *testing.T) {
	oh := OneHot([]int{2, 0}, 3)
	want := tensor.FromSlice([]float64{0, 0, 1, 1, 0, 0}, 2, 3)
	if !oh.SameShape(want) {
		t.Fatalf("shape %v", oh.Shape())
	}
	for i := range want.Data() {
		if oh.Data()[i] != want.Data()[i] {
			t.Fatalf("OneHot = %v", oh.Data())
		}
	}
}

func TestOneHotRejectsBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneHot([]int{3}, 3)
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	// All-zero logits over C classes ⇒ loss = ln C for any labels.
	logits := ad.Const(tensor.New(4, 5))
	loss := CrossEntropy(logits, OneHot([]int{0, 1, 2, 3}, 5))
	if math.Abs(loss.Item()-math.Log(5)) > 1e-10 {
		t.Fatalf("loss = %g, want ln 5 = %g", loss.Item(), math.Log(5))
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	// A huge logit on the true class drives the loss to ~0.
	logits := tensor.New(2, 3)
	logits.Set(50, 0, 1)
	logits.Set(50, 1, 2)
	loss := CrossEntropy(ad.Const(logits), OneHot([]int{1, 2}, 3))
	if loss.Item() > 1e-9 {
		t.Fatalf("loss = %g, want ~0", loss.Item())
	}
}

func TestCrossEntropyShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.Randn(rng, 3, 2, 4)
	oh := OneHot([]int{1, 3}, 4)
	l1 := CrossEntropy(ad.Const(logits), oh).Item()
	l2 := CrossEntropy(ad.Const(tensor.ApplyInto(nil, logits, func(v float64) float64 { return v + 100 })), oh).Item()
	if math.Abs(l1-l2) > 1e-8 {
		t.Fatalf("loss not shift invariant: %g vs %g", l1, l2)
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := tensor.Randn(rng, 1, 3, 4)
	oh := OneHot([]int{0, 2, 3}, 4)
	err := ad.CheckGradient(func(xs []*ad.Value) *ad.Value {
		return CrossEntropy(xs[0], oh)
	}, []*tensor.Tensor{logits}, 1e-5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyGradientIsSoftmaxMinusOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.Randn(rng, 1, 2, 3)
	labels := []int{2, 0}
	v := ad.Var(logits.Clone())
	loss := CrossEntropy(v, OneHot(labels, 3))
	g := ad.MustGrad(loss, []*ad.Value{v})[0].Data
	sm := Softmax(logits)
	b := 2.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			want := sm.At(i, j)
			if j == labels[i] {
				want -= 1
			}
			want /= b
			if math.Abs(g.At(i, j)-want) > 1e-10 {
				t.Fatalf("grad[%d,%d] = %g, want %g", i, j, g.At(i, j), want)
			}
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sm := Softmax(tensor.Randn(rng, 5, 3, 7))
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 7; j++ {
			sum += sm.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense("d", rng, 2, 2)
	d.weight.Data = tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	d.bias.Data = tensor.FromSlice([]float64{10, 20}, 2)
	m := NewModel([]int{2}, 2, d)
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	got := m.Logits(x)
	want := []float64{1*1 + 1*3 + 10, 1*2 + 1*4 + 20}
	for i, w := range want {
		if got.Data()[i] != w {
			t.Fatalf("logits = %v, want %v", got.Data(), want)
		}
	}
}

func TestConvNetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := ConvNetConfig{InputH: 8, InputW: 8, InputC: 3, Classes: 10, Width: 8, Depth: 2}
	m := NewConvNet(cfg, rng)
	x := tensor.Randn(rng, 1, 2, 8, 8, 3)
	logits := m.Logits(x)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
}

func TestConvNetConfigValidate(t *testing.T) {
	bad := ConvNetConfig{InputH: 4, InputW: 4, InputC: 1, Classes: 10, Width: 4, Depth: 4}
	if err := bad.Validate(); err == nil {
		t.Fatal("depth 4 on 4x4 input must be invalid")
	}
	good := DefaultConvNetConfig(8, 8, 1, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConvNetDeterministicInit(t *testing.T) {
	cfg := DefaultConvNetConfig(8, 8, 1, 4)
	a := NewConvNet(cfg, rand.New(rand.NewSource(9)))
	b := NewConvNet(cfg, rand.New(rand.NewSource(9)))
	pa, pb := a.ParamTensors(), b.ParamTensors()
	for i := range pa {
		for j := range pa[i].Data() {
			if pa[i].Data()[j] != pb[i].Data()[j] {
				t.Fatal("same seed must give same init")
			}
		}
	}
}

func TestModelParamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewConvNet(DefaultConvNetConfig(8, 8, 1, 3), rng)
	orig := m.CloneParams()
	// Perturb, then restore.
	for _, p := range m.ParamTensors() {
		p.ScaleInPlace(3)
	}
	m.SetParams(orig)
	for i, p := range m.ParamTensors() {
		for j := range p.Data() {
			if p.Data()[j] != orig[i].Data()[j] {
				t.Fatal("SetParams must restore exactly")
			}
		}
	}
}

func TestModelSetParamsValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewConvNet(DefaultConvNetConfig(8, 8, 1, 3), rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong count")
		}
	}()
	m.SetParams(nil)
}

func TestModelSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := DefaultConvNetConfig(8, 8, 1, 3)
	m := NewConvNet(cfg, rng)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewConvNet(cfg, rand.New(rand.NewSource(999)))
	if err := m2.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.ParamTensors(), m2.ParamTensors()
	for i := range p1 {
		for j := range p1[i].Data() {
			if p1[i].Data()[j] != p2[i].Data()[j] {
				t.Fatal("round trip mismatch")
			}
		}
	}
}

func TestConvNetGradientNumeric(t *testing.T) {
	// End-to-end gradient check on a tiny ConvNet: loss vs all parameters.
	rng := rand.New(rand.NewSource(11))
	cfg := ConvNetConfig{InputH: 4, InputW: 4, InputC: 1, Classes: 2, Width: 2, Depth: 1}
	m := NewConvNet(cfg, rng)
	x := tensor.Randn(rng, 1, 2, 4, 4, 1)
	oh := OneHot([]int{0, 1}, 2)

	params := m.CloneParams()
	err := ad.CheckGradient(func(ps []*ad.Value) *ad.Value {
		b := &Bound{model: m, vars: ps}
		return CrossEntropy(b.Forward(ad.Const(x)), oh)
	}, params, 1e-5, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConvNetGradientWrtInputNumeric(t *testing.T) {
	// Gradient w.r.t. the input image — the path dataset distillation uses.
	rng := rand.New(rand.NewSource(12))
	cfg := ConvNetConfig{InputH: 4, InputW: 4, InputC: 1, Classes: 2, Width: 2, Depth: 1}
	m := NewConvNet(cfg, rng)
	x := tensor.Randn(rng, 1, 1, 4, 4, 1)
	oh := OneHot([]int{1}, 2)
	err := ad.CheckGradient(func(xs []*ad.Value) *ad.Value {
		return CrossEntropy(m.BindFrozen().Forward(xs[0]), oh)
	}, []*tensor.Tensor{x}, 1e-5, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInstanceNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := NewInstanceNorm("n", 2)
	x := ad.Const(tensor.Randn(rng, 5, 1, 4, 4, 2))
	ps := []*ad.Value{ad.Const(n.gamma.Data), ad.Const(n.beta.Data)}
	y := n.Forward(x, ps).Data
	// Per channel: mean ≈ 0, variance ≈ 1.
	for c := 0; c < 2; c++ {
		sum, sq := 0.0, 0.0
		for h := 0; h < 4; h++ {
			for w := 0; w < 4; w++ {
				v := y.At(0, h, w, c)
				sum += v
				sq += v * v
			}
		}
		mean := sum / 16
		variance := sq/16 - mean*mean
		if math.Abs(mean) > 1e-10 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %g var %g", c, mean, variance)
		}
	}
}

func TestAvgPoolKnown(t *testing.T) {
	g := tensor.ConvGeom{Kernel: 2, Stride: 2, Pad: 0, InH: 2, InW: 2, Channel: 1}
	p := NewAvgPool(g)
	x := ad.Const(tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2, 1))
	y := p.Forward(x, nil).Data
	if y.Len() != 1 || y.Data()[0] != 2.5 {
		t.Fatalf("avgpool = %v", y.Data())
	}
}

func TestPredictMatchesLogitsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewConvNet(DefaultConvNetConfig(8, 8, 1, 4), rng)
	x := tensor.Randn(rng, 1, 3, 8, 8, 1)
	pred := m.Predict(x)
	am := m.Logits(x).ArgMaxRows()
	for i := range pred {
		if pred[i] != am[i] {
			t.Fatal("Predict must be argmax of Logits")
		}
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 2, Width: 4, Depth: 1}
	m := NewConvNet(cfg, rng)
	// conv: 3*3*1*4 + 4; norm: 4+4; dense: (4*4*4)*2 + 2.
	want := 36 + 4 + 8 + 128 + 2
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}
