package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// LossGrads builds its graph in the arena's first-order scope, where each
// conv, norm and pooling layer is one node with direct-kernel gradients.
// The same graph built in the same arena outside the scope is the
// composite, and the two agree bit for bit, loss and every gradient: on
// every inference architecture (convnet-width10's convolutions have an
// eight-filter tile and a tail of two), at batches 16, 5 and 1 of
// Gaussian and zero-rich inputs, with the parameters jittered off their
// initial values and the first layer's weights finite or holding a NaN
// or a +Inf, at GOMAXPROCS 1 and 2 (where the batch-16 gradient kernels
// shard), with the arena poisoning every buffer it recycles.
func TestLossGradsMatchesComposite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, arch := range inferenceArchs {
			for _, poison := range []float64{0, math.NaN(), math.Inf(1)} {
				m := arch.build(rand.New(rand.NewSource(81)))
				jitter := rand.New(rand.NewSource(80))
				for _, p := range m.Params() {
					for j := range p.Data.Data() {
						p.Data.Data()[j] += 0.1 * jitter.NormFloat64()
					}
				}
				if poison != 0 {
					m.Params()[0].Data.Data()[4] = poison
				}
				m.Arena().PoisonOnReset(true)
				rng := rand.New(rand.NewSource(82))
				for i, batch := range []int{16, 5, 1, 16} {
					x := tensor.Randn(rng, 1, batch, 8, 8, 1)
					if i%2 == 1 {
						x = zeroRich(rng, batch)
					}
					labels := make([]int, batch)
					for j := range labels {
						labels[j] = rng.Intn(m.Classes)
					}
					what := fmt.Sprintf("%s, GOMAXPROCS %d, weight %v, batch %d", arch.name, procs, poison, batch)

					bound := m.BindStep()
					loss := CrossEntropy(bound.Forward(m.Arena().Const(x)), OneHot(labels, m.Classes))
					want := []*tensor.Tensor{tensor.FromSlice([]float64{loss.Item()}, 1)}
					for _, g := range ad.MustGrad(loss, bound.ParamVars()) {
						want = append(want, g.Data.Clone())
					}
					m.Arena().Reset()

					grads := make([]*tensor.Tensor, len(m.Params()))
					got := []*tensor.Tensor{tensor.FromSlice([]float64{m.LossGrads(grads, x, labels)}, 1)}
					got = append(got, grads...)
					for j := range want {
						requireSameBits(t, fmt.Sprintf("%s: value %d", what, j), want[j], got[j])
					}
					m.Arena().Reset()
				}
			}
		}
	}
}

// LossGrads closes the first-order scope when it returns and when it
// panics: a graph built afterwards in the same arena, as the matcher's
// synthetic pass is, is the composite — a conv on a differentiable input
// ends in the composite's reshape, a norm in its broadcast add, and a
// pooling's gradient is a col2im scatter — so a second-order Grad never
// meets a constant VJP.
func TestLossGradsClosesTheScope(t *testing.T) {
	m := NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2}, rand.New(rand.NewSource(83)))
	x := tensor.Randn(rand.New(rand.NewSource(84)), 1, 3, 8, 8, 1)
	labels := []int{0, 1, 2}
	grads := make([]*tensor.Tensor, len(m.Params()))
	requireComposite := func(what string) {
		t.Helper()
		ar := m.Arena()
		bound := m.BindStep()
		img := ar.Var(x)
		for n, op := range map[int]string{1: "reshape", 2: "addbcast"} {
			if got := bound.ForwardUpTo(img, n).Op(); got != op {
				t.Fatalf("%s: layer %d built a %q node, want the composite's %q", what, n, got, op)
			}
		}
		pool := m.Layers()[3].(*AvgPool)
		in := ar.Var(tensor.Randn(rand.New(rand.NewSource(85)), 1, 3, 8, 8, 4))
		if got := ad.MustGrad(ad.SumAll(ad.AvgPool(in, pool.Geom)), []*ad.Value{in})[0].Op(); got != "col2im" {
			t.Fatalf("%s: a pooling's gradient is a %q node, want the composite's col2im", what, got)
		}
		ar.Reset()
	}

	m.LossGrads(grads, x, labels)
	m.Arena().Reset()
	requireComposite("after LossGrads returned")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("LossGrads on a batch of the wrong size did not panic")
			}
		}()
		m.LossGrads(grads, tensor.New(3, 7, 8, 1), labels)
	}()
	m.Arena().Reset()
	requireComposite("after LossGrads panicked")
}
