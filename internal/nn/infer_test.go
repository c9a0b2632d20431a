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
// inputs: the paper's ConvNet with and without InstanceNorm (at width 10,
// one eight-filter register tile and a tail of two).
var inferenceArchs = []struct {
	name  string
	build func(rng *rand.Rand) *Model
}{
	{"convnet", func(rng *rand.Rand) *Model {
		return NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2}, rng)
	}},
	{"convnet-width10", func(rng *rand.Rand) *Model {
		return NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 10, Depth: 2}, rng)
	}},
	{"convnet-nonorm", func(rng *rand.Rand) *Model {
		return NewConvNet(ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2, NoNorm: true}, rng)
	}},
}

// requireSameBits fails unless got has want's shape and, element by
// element, its float64 bit pattern. Two NaNs count as equal whatever
// their payload and sign: which operand's NaN an Inf − Inf or NaN·NaN
// keeps depends on the operand order the compiler picks for the
// instruction (it differs under -race), not on the order of the sums.
func requireSameBits(t *testing.T, what string, want, got *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %s, want %s", what, got.ShapeString(), want.ShapeString())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, g, w)
		}
	}
}

// zeroRich returns a Gaussian batch of n 8×8×1 images with runs of +0
// and −0 over a third of its values each: inputs where the zeros a
// forward product skips decide which outputs a non-finite weight reaches.
func zeroRich(rng *rand.Rand, n int) *tensor.Tensor {
	x := tensor.Randn(rng, 1, n, 8, 8, 1)
	for i := range x.Data() {
		switch (i / 7) % 3 {
		case 1:
			x.Data()[i] = 0
		case 2:
			x.Data()[i] = math.Copysign(0, -1)
		}
	}
	return x
}

// Inference computes bit for bit what the model's differentiable graph
// computes, call after call, on the model's arena and on the heap. The
// reference is Bind's heap graph: its parameters require gradients, so
// its conv and norm layers run the composite (im2col, matmul, bias;
// reduce, broadcast) while inference, whose parameters are frozen, runs
// the direct kernels. The batch size changes between calls, so the
// poisoned buffers one shape gave back serve the next, and every call
// must leave the arena where it found it. Inputs are Gaussian and
// zero-rich, the parameters jittered off their initial values and the
// first layer's weights finite or holding a NaN or a +Inf, at GOMAXPROCS
// 1 and 2 (where the batch-64 kernels shard).
func TestInferenceOnArenaMatchesHeap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, arch := range inferenceArchs {
			for _, poison := range []float64{0, math.NaN(), math.Inf(1)} {
				onArena, onHeap := arch.build(rand.New(rand.NewSource(71))), arch.build(rand.New(rand.NewSource(71)))
				// Move every parameter off its initial value, so the norms'
				// scales and shifts are not 1 and 0.
				jitter := rand.New(rand.NewSource(70))
				for i, p := range onArena.Params() {
					for j := range p.Data.Data() {
						d := 0.1 * jitter.NormFloat64()
						p.Data.Data()[j] += d
						onHeap.Params()[i].Data.Data()[j] += d
					}
				}
				if poison != 0 {
					onArena.Params()[0].Data.Data()[4] = poison
					onHeap.Params()[0].Data.Data()[4] = poison
				}
				onArena.Arena().PoisonOnReset(true)
				onHeap.DetachArena()
				rng := rand.New(rand.NewSource(72))
				for i, batch := range []int{64, 50, 8, 2, 1, 64} {
					x := tensor.Randn(rng, 1, batch, 8, 8, 1)
					if i%2 == 1 {
						x = zeroRich(rng, batch)
					}
					what := fmt.Sprintf("%s, GOMAXPROCS %d, weight %v, batch %d", arch.name, procs, poison, batch)
					composite := func(n int) *tensor.Tensor { return onHeap.Bind().ForwardUpTo(ad.Const(x), n).Data }
					mark := onArena.Arena().Mark()

					logits := composite(len(onArena.Layers()))
					requireSameBits(t, what+": Logits on the arena", logits, onArena.Logits(x))
					requireSameBits(t, what+": Logits on the heap", logits, onHeap.Logits(x))
					want := logits.ArgMaxRows()
					for name, got := range map[string][]int{"arena": onArena.Predict(x), "heap": onHeap.Predict(x)} {
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: Predict[%d] = %d on the %s, %d from the composite's logits", what, i, got[i], name, want[i])
							}
						}
					}
					for n := 0; n <= len(onArena.Layers()); n++ {
						requireSameBits(t, fmt.Sprintf("%s: ForwardLayers(%d)", what, n), composite(n), onArena.ForwardLayers(x, n))
					}
					if onArena.Arena().Mark() != mark {
						t.Fatalf("%s: inference did not rewind the arena to where it found it", what)
					}
				}
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
						cls := logits.Dim(1)
						row := tensor.FromSlice(logits.Data()[r*cls:(r+1)*cls], 1, cls)
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
	if objects > 12 { // measured 10, +20 %
		t.Errorf("a warm Predict allocated %.0f objects, want ≤ 12", objects)
	}

	m.DetachArena()
	_, heapBytes := heapPerCall(5, func() { m.Predict(x) })
	t.Logf("Predict on the heap path: %.0f bytes", heapBytes)
	if heapBytes < 20*bytes {
		t.Errorf("without the arena a Predict allocates %.0f bytes, with it %.0f: is the arena in use?", heapBytes, bytes)
	}
}
