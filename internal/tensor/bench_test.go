package tensor_test

import (
	"math/rand"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/telemetry/health"
	"quickdrop/internal/tensor"
)

// The micro-benchmarks below guard the allocation behaviour of the compute
// backbone: run with `go test -bench=. -benchmem ./internal/tensor` and
// compare allocs/op across changes. BenchmarkGradientMatchingStep is the
// acceptance metric for the destination-passing refactor.

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 96)
	y := tensor.Randn(rng, 1, 96, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(nil, x, y)
	}
}

// BenchmarkMatMulInto is the destination-passing counterpart: with a
// reused destination the steady state allocates nothing.
func BenchmarkMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 64, 96)
	y := tensor.Randn(rng, 1, 96, 48)
	dst := tensor.New(64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulParallel is large enough to clear the row-sharding
// threshold, exercising the GOMAXPROCS-parallel kernel.
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	dst := tensor.New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulSubstrate times the three products at the shapes a
// batch-16 step of the benchmark substrate's ConvNet (8×8×1 input, width 8,
// depth 2, 10 classes) runs: conv block 0, conv block 1 and the classifier,
// each as its forward product (NN) and the two its backward adds (NT for
// the input gradient, TN for the weight gradient).
func BenchmarkMatMulSubstrate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type product struct{ a, w, c, dA, dW *tensor.Tensor }
	var ps []product
	for _, s := range [][3]int{{1024, 9, 8}, {256, 72, 8}, {16, 32, 10}} {
		m, k, n := s[0], s[1], s[2]
		ps = append(ps, product{
			a: tensor.Randn(rng, 1, m, k), w: tensor.Randn(rng, 1, k, n), c: tensor.Randn(rng, 1, m, n),
			dA: tensor.New(m, k), dW: tensor.New(k, n),
		})
	}
	kernels := []struct {
		name string
		run  func(p product)
	}{
		{"NN", func(p product) { tensor.MatMulInto(p.c, p.a, p.w) }},
		{"NT", func(p product) { tensor.MatMulNTInto(p.dA, p.c, p.w) }},
		{"TN", func(p product) { tensor.MatMulTNInto(p.dW, p.a, p.c) }},
	}
	for _, kn := range kernels {
		b.Run(kn.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					kn.run(p)
				}
			}
		})
	}
}

// BenchmarkReLU times the rectifier with its derivative mask on block 0's
// activation of a batch-16 substrate step, the largest one a step rectifies.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 16, 8, 8, 8)
	dst, mask := tensor.NewLike(x), tensor.NewLike(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ReLUInto(dst, mask, x)
	}
}

func benchGeom() tensor.ConvGeom {
	return tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 16, InW: 16, Channel: 8}
}

func BenchmarkIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := benchGeom()
	x := tensor.Randn(rng, 1, 8, g.InH, g.InW, g.Channel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Im2col(x, g)
	}
}

// BenchmarkIm2colInto reuses one patch-matrix buffer across extractions.
func BenchmarkIm2colInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := benchGeom()
	x := tensor.Randn(rng, 1, 8, g.InH, g.InW, g.Channel)
	dst := tensor.New(8*g.OutH()*g.OutW(), g.Kernel*g.Kernel*g.Channel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Im2colInto(dst, x, g)
	}
}

// BenchmarkConv2DForwardBackward measures one forward pass plus a full
// first-order backward through a small ConvNet (the inner loop of both FL
// training and gradient matching).
func BenchmarkConv2DForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewConvNet(nn.ConvNetConfig{
		InputH: 8, InputW: 8, InputC: 3, Classes: 4, Width: 8, Depth: 2,
	}, rng)
	x := tensor.Randn(rng, 1, 4, 8, 8, 3)
	oneHot := nn.OneHot([]int{0, 1, 2, 3}, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound := model.BindStep()
		loss := nn.CrossEntropy(bound.Forward(model.Arena().Const(x)), oneHot)
		_ = ad.MustGrad(loss, bound.ParamVars())
		model.Arena().Reset()
	}
}

// BenchmarkGradientMatchingStep measures one full in-situ distillation
// update: real gradient, synthetic gradient with create-graph, grouped
// cosine distance, and the second-order gradient w.r.t. the pixels.
func BenchmarkGradientMatchingStep(b *testing.B) {
	m, ctx := benchMatcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchStep(ctx)
	}
}

func benchMatcher() (*distill.Matcher, fl.StepContext) {
	rng := rand.New(rand.NewSource(1))
	spec := data.Spec{Name: "bench", H: 8, W: 8, C: 3, Classes: 4,
		TrainPerClass: 8, TestPerClass: 0, Noise: 0.3, Jitter: 1}
	ds, _ := data.Generate(spec, 7)
	model := nn.NewConvNet(nn.ConvNetConfig{
		InputH: 8, InputW: 8, InputC: ds.C, Classes: 4, Width: 8, Depth: 2,
	}, rng)
	cfg := distill.DefaultConfig()
	cfg.Scale = 8
	cfg.RealBatch = 4
	m := distill.NewMatcher(cfg, data.NewCohort([]*data.Dataset{ds}), rng)
	ctx := fl.StepContext{
		Round: 0, Step: 0, ClientID: 0,
		Model: model, Client: ds, Rng: rng,
	}
	return m, ctx
}

// BenchmarkGradientMatchingStepHealth is the same workload with the
// numerics health monitor attached at its default sampling cadence;
// the gap to the plain step is the monitor's overhead.
func BenchmarkGradientMatchingStepHealth(b *testing.B) {
	m, ctx := benchMatcher()
	ctx.Health = health.New(health.Config{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchStep(ctx)
	}
}

// BenchmarkNormStats pins the cost of the single-pass norm + poison
// count kernel on a model-layer-sized tensor.
func BenchmarkNormStats(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	t := tensor.Randn(rng, 1, 64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _, _ = tensor.NormStats(t)
	}
}

// sink defeats dead-code elimination of the benchmarked kernels.
var sink float64

// BenchmarkBcast times the fused broadcast kernels and their reductions at
// the span shapes the substrate ConvNet's instance norm and losses take, one
// row per loop shape: a same-shape pair ([16,8,8,8] twice), a per-row scalar
// (inner 1: [16,10]·[16,1]), per-sample channel statistics (outer > 1:
// [8,8,8,8]·[8,1,1,8]) and the affine parameters (outer 1:
// [8,8,8,8]·[1,1,1,8]). The elementwise row is the same-shape kernel
// without broadcasting, for comparison with the first.
func BenchmarkBcast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name        string
		full, small []int
	}{
		{"same", []int{16, 8, 8, 8}, []int{16, 8, 8, 8}},
		{"inner1", []int{16, 10}, []int{16, 1}},
		{"outer8", []int{8, 8, 8, 8}, []int{8, 1, 1, 8}},
		{"outer1", []int{8, 8, 8, 8}, []int{1, 1, 1, 8}},
	}
	for _, s := range shapes {
		x, y := tensor.Randn(rng, 1, s.full...), tensor.Randn(rng, 1, s.full...)
		small := tensor.Randn(rng, 1, s.small...)
		dst, red := tensor.New(s.full...), tensor.New(s.small...)
		b.Run("MulBcast/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MulBcastInto(dst, x, small)
			}
		})
		b.Run("SumLike/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.SumLikeInto(red, x, small)
			}
		})
		b.Run("MulSumLike/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MulSumLikeInto(red, x, y, small)
			}
		})
	}
	x, y := tensor.Randn(rng, 1, 16, 8, 8, 8), tensor.Randn(rng, 1, 16, 8, 8, 8)
	dst := tensor.New(16, 8, 8, 8)
	b.Run("Mul/same", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MulInto(dst, x, y)
		}
	})
}
