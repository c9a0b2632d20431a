package distill

import (
	"math/rand"
	"runtime"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

// heapPerCall returns the heap objects and bytes one call of f allocates,
// averaged over runs calls after one warm-up call. Like
// testing.AllocsPerRun it measures at GOMAXPROCS(1): what the kernels'
// goroutine fan-out allocates is ROADMAP item 2(ii)'s, not the arena's.
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

// After one warm-up step, a matching iteration — both batches and their
// one-hot targets, two first-order graphs, the distance, the
// second-order gradient — comes out of the model's arena. What an
// iteration still allocates is its input's label buffer and small
// objects: kernel and VJP closures, two Bounds, two Grad result slices.
func TestMatchIterationSteadyStateAllocations(t *testing.T) {
	client := clientSet(t, 16, 3)
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.Scale = 5
	matcher := NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	syn, grouping := matcher.Sets[0], matcher.Groupings[0]
	model := nn.NewConvNet(nn.DefaultConvNetConfig(8, 8, 1, 10), rng)
	ctx := fl.StepContext{ClientID: 0, Model: model, Client: client, Rng: rng}
	iterations := float64(len(grouping.Keys())) // one per class at Steps = 1

	_, input := heapPerCall(10, func() {
		arena := model.Arena()
		for _, key := range grouping.Keys() {
			realIdx, synIdx := grouping.Real[key], grouping.Syn[key]
			labels := make([]int, 0, max(len(realIdx), len(synIdx)))
			_, yD := client.BatchInto(arena.Tensor(), labels, realIdx)
			_, yS := syn.BatchInto(arena.Tensor(), labels, synIdx)
			_, _ = nn.OneHotInto(arena.Tensor(), yD, model.Classes), nn.OneHotInto(arena.Tensor(), yS, model.Classes)
			arena.Reset()
		}
	})
	objects, bytes := heapPerCall(10, func() { matcher.MatchStep(ctx) })
	objects, bytes, input = objects/iterations, bytes/iterations, input/iterations
	t.Logf("one matching iteration: %.0f objects, %.0f bytes, of which %.0f gather the input", objects, bytes, input)
	if graph := bytes - input; graph >= 8<<10 {
		t.Errorf("a warm matching iteration allocated %.0f bytes beyond its input, want < 8 KiB", graph)
	}
	if objects > 82 { // measured 68 (69 under -race), +20 %; the ROADMAP target is 500
		t.Errorf("a warm matching iteration allocated %.0f objects, want ≤ 82", objects)
	}

	model.DetachArena()
	_, heapBytes := heapPerCall(3, func() { matcher.MatchStep(ctx) })
	if heapBytes/iterations < 20*bytes {
		t.Errorf("without the arena an iteration allocates %.0f bytes, with it %.0f: is the arena in use?", heapBytes/iterations, bytes)
	}
}

// On arena-backed gradients each distance (MatchDistance and the
// ablation's L2Distance) builds every node and tensor in the arena: a
// warm call allocates nothing on the heap.
func TestMatchDistanceOnArenaAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ar := ad.NewArena()
	shapes := [][]int{{6, 4}, {4}, {4, 3}}
	sT, dT := make([]*tensor.Tensor, len(shapes)), make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		sT[i], dT[i] = tensor.Randn(rng, 1, sh...), tensor.Randn(rng, 1, sh...)
	}
	gS, gD := make([]*ad.Value, len(shapes)), make([]*ad.Value, len(shapes))
	for _, tc := range []struct {
		name string
		dist DistanceFunc
	}{{"MatchDistance", MatchDistance}, {"L2Distance", L2Distance}} {
		if n := testing.AllocsPerRun(10, func() {
			for i := range shapes {
				gS[i], gD[i] = ar.Var(sT[i]), ar.Const(dT[i])
			}
			tc.dist(gS, gD, 1e-6)
			ar.Reset()
		}); n != 0 {
			t.Errorf("%s on arena gradients allocates %v objects per call, want 0", tc.name, n)
		}
	}
}
