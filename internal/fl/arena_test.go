package fl

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
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

// After one warm-up step a local step's input and graph — the gathered
// batch and its one-hot targets, nodes, result tensors, Grad's scratch —
// come out of the model's arena. What a step still allocates is the
// index permutation its batch is drawn by, and small objects: the
// kernels' closures, the Bound and its variables.
func TestLocalStepSteadyStateAllocations(t *testing.T) {
	model, parts, _ := testSetup(t, 3, 0)
	client := parts[0]
	cfg := PhaseConfig{LocalSteps: 1, BatchSize: 8, LR: 0.05}
	rng := rand.New(rand.NewSource(5))

	_, input := heapPerCall(20, func() {
		arena := model.Arena()
		x, labels := client.BatchInto(arena.Tensor(), make([]int, 0, cfg.BatchSize), sampleIndices(rng, client.Len(), cfg.BatchSize))
		_, _ = x, nn.OneHotInto(arena.Tensor(), labels, model.Classes)
		arena.Reset()
	})
	objects, bytes := heapPerCall(20, func() { runLocalSteps(model, client, cfg, 0, 0, rng) })
	t.Logf("one local step: %.0f objects, %.0f bytes, of which %.0f gather the input", objects, bytes, input)
	if graph := bytes - input; graph >= 8<<10 {
		t.Errorf("a warm local step allocated %.0f bytes beyond its input, want < 8 KiB", graph)
	}
	if objects > 22 { // measured 18 (19 under -race), +20 %
		t.Errorf("a warm local step allocated %.0f objects, want ≤ 22", objects)
	}

	model.DetachArena()
	_, heapBytes := heapPerCall(5, func() { runLocalSteps(model, client, cfg, 0, 0, rng) })
	if heapBytes < 20*bytes {
		t.Errorf("without the arena a step allocates %.0f bytes, with it %.0f: is the arena in use?", heapBytes, bytes)
	}
}

func flatParams(m *nn.Model) []float64 {
	var flat []float64
	for _, p := range m.ParamTensors() {
		flat = append(flat, p.Data()...)
	}
	return flat
}

func requireSameFloats(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d values", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: value %d differs: %g vs %g", what, i, want[i], got[i])
		}
	}
}

// TestArenaDoesNotPerturbTraining reruns the same seeded phase with every
// model's arena poisoning the buffers it recycles, and with no arena at
// all, in the sequential runtime and in the pool at 1 and 3 workers. The
// parameters must agree bit for bit: nothing reads a tensor after its
// step ended, and no kernel relies on a zero-initialised destination.
func TestArenaDoesNotPerturbTraining(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	cfg := PhaseConfig{Rounds: 3, LocalSteps: 3, BatchSize: 8, LR: 0.05}

	run := func(workers int, prepare func(*nn.Model)) []float64 {
		t.Helper()
		factory, model := testFactory()
		prepare(model)
		var err error
		if workers == 0 {
			_, err = RunPhase(model, parts, cfg, rand.New(rand.NewSource(84)))
		} else {
			c := cfg
			c.Workers = workers
			prepared := func() *nn.Model {
				m := factory()
				prepare(m)
				return m
			}
			_, err = RunPhaseConcurrentRegistry(context.Background(), model, prepared, data.NewCohort(parts), c, rand.New(rand.NewSource(84)))
		}
		if err != nil {
			t.Fatal(err)
		}
		return flatParams(model)
	}

	for _, workers := range []int{0, 1, 3} {
		heap := run(workers, (*nn.Model).DetachArena)
		poisoned := run(workers, func(m *nn.Model) { m.Arena().PoisonOnReset(true) })
		requireSameFloats(t, "heap vs poisoned arena", heap, poisoned)
	}
}

// Two models trained on two goroutines each recycle their own buffers:
// the concurrent trajectories equal the solo ones bit for bit (under
// -race a shared buffer is also a reported race), and the tensors the two
// models' graphs end up in are disjoint.
func TestArenasAreNotSharedAcrossGoroutines(t *testing.T) {
	_, parts, _ := testSetup(t, 2, 0)
	cfg := PhaseConfig{LocalSteps: 6, BatchSize: 8, LR: 0.05}
	train := func(m *nn.Model, client int) {
		m.Arena().PoisonOnReset(true)
		runLocalSteps(m, parts[client], cfg, 0, client, rand.New(rand.NewSource(int64(client))))
	}
	factory, _ := testFactory()

	var solo [2][]float64
	for i := range solo {
		m := factory()
		train(m, i)
		solo[i] = flatParams(m)
	}

	models := [2]*nn.Model{factory(), factory()}
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func(i int, m *nn.Model) {
			defer wg.Done()
			train(m, i)
		}(i, m)
	}
	wg.Wait()

	owner := map[*float64]int{}
	for i, m := range models {
		requireSameFloats(t, "solo vs concurrent", solo[i], flatParams(m))
		// One more graph, left un-reset: its tensors sit in buffers the
		// training steps recycled.
		x, labels := parts[i].Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
		bound := m.BindStep()
		logits := bound.Forward(m.Arena().Const(x))
		loss := nn.CrossEntropy(logits, nn.OneHot(labels, m.Classes))
		tensors := []*tensor.Tensor{logits.Data, loss.Data}
		for _, g := range ad.MustGrad(loss, bound.ParamVars()) {
			tensors = append(tensors, g.Data)
		}
		for _, tt := range tensors {
			p := &tt.Data()[0]
			if prev, seen := owner[p]; seen && prev != i {
				t.Fatalf("models %d and %d were handed the same buffer", prev, i)
			}
			owner[p] = i
		}
	}
}
