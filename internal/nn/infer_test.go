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

// inferenceArchs are the stacks the inference tests run, all on 8×8×1
// inputs: the paper's ConvNet with and without InstanceNorm, a
// max-pooling stack, and MLPs with saturating activations.
var inferenceArchs = []struct {
	name  string
	build func(rng *rand.Rand) *Model
}{
	{"convnet", func(rng *rand.Rand) *Model {
		return NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2}, rng)
	}},
	{"convnet-nonorm", func(rng *rand.Rand) *Model {
		return NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2, NoNorm: true}, rng)
	}},
	{"maxpool", func(rng *rand.Rand) *Model {
		conv := NewConv2D("c", rng, tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Channel: 1}, 4)
		pool := NewMaxPool(tensor.ConvGeom{Kernel: 2, Stride: 2, Pad: 0, InH: 8, InW: 8, Channel: 4})
		return NewModel([]int{8, 8, 1}, 4, conv, ReLULayer{}, pool, Flatten{}, NewDense("d", rng, 4*4*4, 4))
	}},
	{"mlp-sigmoid", func(rng *rand.Rand) *Model {
		return NewMLP(MLPConfig{InputShape: []int{8, 8, 1}, Hidden: []int{16, 8}, Classes: 4, Activation: "sigmoid"}, rng)
	}},
	{"mlp-tanh", func(rng *rand.Rand) *Model {
		return NewMLP(MLPConfig{InputShape: []int{8, 8, 1}, Hidden: []int{16, 8}, Classes: 4, Activation: "tanh"}, rng)
	}},
}

// requireSameBits fails unless got has want's shape and, element by
// element, its float64 bit pattern.
func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %s, want %s", what, got.ShapeString(), want.ShapeString())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, g, w)
		}
	}
}

// Inference on the model's arena computes bit for bit what it computes on
// the heap, call after call. The batch size changes between calls, so the
// poisoned buffers one shape gave back serve the next, and every call
// must leave the arena where it found it.
func TestInferenceOnArenaMatchesHeap(t *testing.T) {
	for _, arch := range inferenceArchs {
		onArena, onHeap := arch.build(rand.New(rand.NewSource(71))), arch.build(rand.New(rand.NewSource(71)))
		onArena.Arena().PoisonOnReset(true)
		onHeap.DetachArena()
		rng := rand.New(rand.NewSource(72))
		for _, batch := range []int{64, 50, 8, 2, 1, 64} {
			x := tensor.Randn(rng, 1, batch, 8, 8, 1)
			what := fmt.Sprintf("%s, batch %d", arch.name, batch)
			mark := onArena.Arena().Mark()

			requireSameBits(t, what+": Logits", onHeap.Logits(x), onArena.Logits(x))
			want, got := onHeap.Predict(x), onArena.Predict(x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Predict[%d] = %d on the arena, %d on the heap", what, i, got[i], want[i])
				}
			}
			for n := 0; n <= len(onArena.Layers()); n++ {
				requireSameBits(t, fmt.Sprintf("%s: ForwardLayers(%d)", what, n), onHeap.ForwardLayers(x, n), onArena.ForwardLayers(x, n))
			}
			if onArena.Arena().Mark() != mark {
				t.Fatalf("%s: inference did not rewind the arena to where it found it", what)
			}
		}
	}
}

// Inference between a training step's forward and its backward rewinds
// only its own pass: the step's loss and gradients come out bit for bit
// as they do with no inference in between. A Reset in place of the
// rewind would hand the step's nodes and poisoned buffers to the pass.
func TestInferenceMidStepLeavesTheStepIntact(t *testing.T) {
	for _, arch := range inferenceArchs {
		m := arch.build(rand.New(rand.NewSource(73)))
		m.Arena().PoisonOnReset(true)
		rng := rand.New(rand.NewSource(74))
		x, probe := tensor.Randn(rng, 1, 16, 8, 8, 1), tensor.Randn(rng, 1, 50, 8, 8, 1)
		labels := make([]int, x.Dim(0))
		for i := range labels {
			labels[i] = i % m.Classes
		}
		step := func(between func()) []float64 {
			bound := m.BindStep()
			loss := CrossEntropy(bound.Forward(m.Arena().Const(x)), OneHot(labels, m.Classes))
			between()
			out := []float64{loss.Item()}
			for _, g := range ad.MustGrad(loss, bound.ParamVars()) {
				out = append(out, g.Data.Data()...)
			}
			m.Arena().Reset()
			return out
		}
		want := step(func() {})
		got := step(func() {
			m.Predict(probe)
			m.Logits(x)
			m.ForwardLayers(probe, 2)
		})
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d of the step is %v with inference mid-step, %v without", arch.name, i, got[i], want[i])
			}
		}
	}
}

// Each sample's output depends on that sample alone: Logits and Predict
// give it bit for bit the same at batch sizes 1, 7 and 64, in any order
// within and across batches, with the kernels inline (GOMAXPROCS 1) or
// sharded (GOMAXPROCS 2, where the batch-64 matmuls clear the kernels'
// parallel threshold). No layer couples the samples of a batch
// (InstanceNorm normalises each sample on its own) and each output row
// comes from one sequential kernel call. Scoring a test set in one pass
// and splitting the counts by class, as eval.ClassSplit does, rests on
// this.
func TestInferenceIsPerSample(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, sample = 70, 8 * 8
	for _, arch := range inferenceArchs {
		m := arch.build(rand.New(rand.NewSource(77)))
		x := tensor.Randn(rand.New(rand.NewSource(78)), 1, n, 8, 8, 1)
		// alone[i] is sample i's logits in a batch of its own, inline.
		alone := make([][]float64, n)
		for i := range alone {
			xi := tensor.FromSlice(x.Data()[i*sample:(i+1)*sample], 1, 8, 8, 1)
			alone[i] = m.Logits(xi).Data()
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, batch := range []int{1, 7, 64} {
				order := rand.New(rand.NewSource(int64(batch))).Perm(n)
				for lo := 0; lo < n; lo += batch {
					idx := order[lo:min(lo+batch, n)]
					xb := tensor.New(len(idx), 8, 8, 1)
					for r, i := range idx {
						copy(xb.Data()[r*sample:], x.Data()[i*sample:(i+1)*sample])
					}
					logits, pred := m.Logits(xb), m.Predict(xb)
					for r, i := range idx {
						row := logits.RowsView(r, r+1)
						for j, w := range alone[i] {
							if g := row.Data()[j]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s, GOMAXPROCS %d, batch %d: sample %d logit %d is %v, %v alone",
									arch.name, procs, batch, i, j, g, w)
							}
						}
						if want := row.ArgMaxRows()[0]; pred[r] != want {
							t.Fatalf("%s, GOMAXPROCS %d, batch %d: sample %d predicted %d, its logits say %d",
								arch.name, procs, batch, i, pred[r], want)
						}
					}
				}
			}
		}
	}
}

// heapPerCall returns the heap objects and bytes one call of f allocates,
// averaged over runs calls after one warm-up call. Like
// testing.AllocsPerRun it measures at GOMAXPROCS(1), where the kernels
// run inline and add no goroutine fan-out of their own.
func heapPerCall(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// After one warm-up call at a shape, inference takes its graph's nodes
// and storage from the model's arena and gives them back. The float
// storage a call still allocates is what it returns — none for Predict,
// whose labels are ints, and the [B, classes] copy for Logits — beside a
// few small objects: the Bound and the kernels' closures.
func TestInferenceSteadyStateAllocations(t *testing.T) {
	m := NewConvNet(DefaultConvNetConfig(8, 8, 1, 4), rand.New(rand.NewSource(75)))
	const batch = 64 // the evaluation batch
	x := tensor.Randn(rand.New(rand.NewSource(76)), 1, batch, 8, 8, 1)

	objects, bytes := heapPerCall(20, func() { m.Predict(x) })
	_, logitsBytes := heapPerCall(20, func() { m.Logits(x) })
	t.Logf("warm Predict: %.0f objects, %.0f bytes; warm Logits: %.0f bytes", objects, bytes, logitsBytes)
	if extra := bytes - batch*8; extra >= 2<<10 {
		t.Errorf("a warm Predict allocated %.0f bytes beyond its %d labels, want < 2 KiB", extra, batch)
	}
	if extra := logitsBytes - batch*4*8; extra >= 2<<10 {
		t.Errorf("a warm Logits allocated %.0f bytes beyond its [%d, 4] copy, want < 2 KiB", extra, batch)
	}
	if objects > 18 { // measured 15, +20 %
		t.Errorf("a warm Predict allocated %.0f objects, want ≤ 18", objects)
	}

	m.DetachArena()
	_, heapBytes := heapPerCall(5, func() { m.Predict(x) })
	t.Logf("Predict on the heap path: %.0f bytes", heapBytes)
	if heapBytes < 20*bytes {
		t.Errorf("without the arena a Predict allocates %.0f bytes, with it %.0f: is the arena in use?", heapBytes, bytes)
	}
}
