package nn

import (
	"math/rand"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// patchPool is average pooling composed from the patch matrix — im2col,
// a window-major reshape, a sum over the window and a 1/K² scale — which
// the autodiff.AvgPool primitive computes in one pass.
type patchPool struct{ geom tensor.ConvGeom }

func (patchPool) Params() []*Param { return nil }

func (p patchPool) Forward(x *ad.Value, _ []*ad.Value) *ad.Value {
	g, k2 := p.geom, p.geom.Kernel*p.geom.Kernel
	cols := ad.Im2col(x, g)
	rows := cols.Data.Dim(0)
	avg := ad.Scale(ad.SumAxes(ad.Reshape(cols, rows, k2, g.Channel), 1), 1/float64(k2))
	return ad.Reshape(avg, x.Data.Dim(0), g.OutH(), g.OutW(), g.Channel)
}

// TestAvgPoolMatchesPatchComposition runs a gradient-matching step, shaped
// like distill.MatchStep, through two ConvNets that differ only in their
// pooling layers: the AvgPool primitive in one and the patch-matrix
// composition in the other, at the ConvNet's pool geometries (2×2, stride
// 2, on 8×8 and 4×4 maps). The logits, the first-order gradients on real
// data, the create-graph gradients on synthetic data and the second-order
// gradient of their distance with respect to the synthetic pixels must be
// bit-equal.
func TestAvgPoolMatchesPatchComposition(t *testing.T) {
	cfg := ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2}
	primitive := NewConvNet(cfg, rand.New(rand.NewSource(31)))
	composed := NewConvNet(cfg, rand.New(rand.NewSource(31)))
	pools := 0
	for i, l := range composed.layers {
		if p, ok := l.(*AvgPool); ok {
			composed.layers[i] = patchPool{p.Geom}
			pools++
		}
	}
	if pools != cfg.Depth {
		t.Fatalf("replaced %d pooling layers, want %d", pools, cfg.Depth)
	}

	rng := rand.New(rand.NewSource(32))
	xReal, xSyn := tensor.Randn(rng, 1, 6, 8, 8, 1), tensor.Randn(rng, 1, 2, 8, 8, 1)
	yReal, ySyn := OneHot([]int{0, 1, 2, 3, 0, 1}, 4), OneHot([]int{2, 2}, 4)
	type step struct {
		logits *tensor.Tensor
		real   []*ad.Value
		syn    []*ad.Value
		pixels *ad.Value
	}
	run := func(m *Model) step {
		var s step
		s.logits = m.Logits(xReal)
		bReal := m.Bind()
		s.real = ad.MustGrad(CrossEntropy(bReal.Forward(ad.Const(xReal)), yReal), bReal.ParamVars())
		syn := ad.Var(xSyn)
		bSyn := m.Bind()
		s.syn = ad.MustGrad(CrossEntropy(bSyn.Forward(syn), ySyn), bSyn.ParamVars())
		var dist *ad.Value
		for i, g := range s.syn {
			d := ad.Sub(g, ad.Const(s.real[i].Data))
			if term := ad.SumAll(ad.Mul(d, d)); dist == nil {
				dist = term
			} else {
				dist = ad.Add(dist, term)
			}
		}
		s.pixels = ad.MustGrad(dist, []*ad.Value{syn})[0]
		return s
	}
	want, got := run(composed), run(primitive)
	requireSameBits(t, "logits", want.logits, got.logits)
	for i, name := range primitive.ParamNames() {
		requireSameBits(t, "real gradient of "+name, want.real[i].Data, got.real[i].Data)
		requireSameBits(t, "synthetic gradient of "+name, want.syn[i].Data, got.syn[i].Data)
	}
	requireSameBits(t, "second-order pixel gradient", want.pixels.Data, got.pixels.Data)
}
