package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"quickdrop/internal/tensor"
)

// BenchmarkPredict times Model.Predict at the benchmark substrate's
// architecture (8×8×1 input, width 8, depth 2, 10 classes) on 8 images,
// the read quickdropd serves per /v1/predict in its benchmark, and on 64,
// where the convolutions' patch matrices clear the row-sharding threshold.
// Run at -cpu 1,2 to see the kernel fan-out.
func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}, rng)
	for _, n := range []int{8, 64} {
		x := tensor.Randn(rng, 1, n, 8, 8, 1)
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.Predict(x)
			}
		})
	}
}

// BenchmarkLossGrads times one training step's forward and backward pass,
// Model.LossGrads, at the benchmark substrate's architecture (8×8×1
// input, width 8, depth 2, 10 classes) on a batch of 16, the matcher's
// default real batch, in a warm arena reset after each step as a
// training loop resets it.
func BenchmarkLossGrads(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}, rng)
	x := tensor.Randn(rng, 1, 16, 8, 8, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % model.Classes
	}
	grads := make([]*tensor.Tensor, len(model.Params()))
	model.LossGrads(grads, x, labels)
	model.Arena().Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.LossGrads(grads, x, labels)
		model.Arena().Reset()
	}
}
