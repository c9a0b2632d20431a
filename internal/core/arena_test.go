package core

import (
	"testing"

	"quickdrop/internal/nn"
)

// TestArenaDoesNotPerturbLifecycle runs the whole lifecycle — training
// with the in-situ distillation hook, class-, sample- and client-level
// unlearning with recovery, relearning — once with the model's step arena
// poisoning every buffer it recycles and once with no arena, and requires
// bit-identical parameters and synthetic sets. Nothing may read a tensor
// after the step that made it ended, and no kernel may rely on a
// zero-initialised destination. (The worker-pool runtime has the same
// proof in internal/fl.)
func TestArenaDoesNotPerturbLifecycle(t *testing.T) {
	run := func(prepare func(*nn.Model)) (params []float64, synthetic []float64) {
		t.Helper()
		clients, _ := testClients(t, 3, 16, 31)
		cfg := DefaultConfig(testArch())
		cfg.Seed = 31
		cfg.Train.Rounds = 2
		cfg.Distill.Scale = 2
		cfg.Distill.Groups = 3
		sys, err := NewSystem(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		prepare(sys.Model)
		if _, err := sys.Train(); err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{
			{Kind: ClassLevel, Class: 3},
			{Kind: SampleLevel, Client: 1, Samples: []int{0, 1, 2}},
			{Kind: ClientLevel, Client: 2},
		} {
			if _, err := sys.Unlearn(req); err != nil {
				t.Fatalf("unlearn %v: %v", req, err)
			}
		}
		if _, err := sys.Relearn(Request{Kind: ClassLevel, Class: 3}); err != nil {
			t.Fatal(err)
		}
		for _, p := range sys.Model.ParamTensors() {
			params = append(params, p.Data()...)
		}
		for i := 0; i < clients.NumClients(); i++ {
			for _, x := range sys.Synthetic(i).X {
				synthetic = append(synthetic, x.Data()...)
			}
		}
		return params, synthetic
	}

	heapParams, heapSyn := run((*nn.Model).DetachArena)
	params, syn := run(func(m *nn.Model) { m.Arena().PoisonOnReset(true) })
	if len(params) != len(heapParams) || len(syn) != len(heapSyn) || len(syn) == 0 {
		t.Fatalf("sizes differ: %d/%d params, %d/%d synthetic values", len(params), len(heapParams), len(syn), len(heapSyn))
	}
	for i := range params {
		if params[i] != heapParams[i] {
			t.Fatalf("param value %d differs: %g with a poisoned arena, %g on the heap", i, params[i], heapParams[i])
		}
	}
	for i := range syn {
		if syn[i] != heapSyn[i] {
			t.Fatalf("synthetic value %d differs: %g with a poisoned arena, %g on the heap", i, syn[i], heapSyn[i])
		}
	}
}
