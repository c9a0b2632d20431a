package eval

import (
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// BenchmarkScore times one Score of the benchmark substrate's test set
// (500 8×8×1 images, 10 classes) on its width-8 depth-2 ConvNet: the pass
// quickdropd makes for every published model, run in batches of 64.
// Run at -cpu 1,2 to see the kernel fan-out.
func BenchmarkScore(b *testing.B) {
	spec := data.MNISTLike(8, 20)
	spec.TestPerClass = 50
	_, test := data.Generate(spec, 7)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rand.New(rand.NewSource(7)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Score(model, test)
	}
}
