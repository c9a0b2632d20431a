package fl

import (
	"context"
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

func millionClientSpec() data.PartitionSpec {
	return data.PartitionSpec{
		Data:             data.MNISTLike(8, 4),
		Clients:          1_000_000,
		SamplesPerClient: 8,
		Seed:             5,
		Scheme:           data.SchemeIID,
	}
}

func TestSampleClientIDsProperties(t *testing.T) {
	reg, err := data.NewLazyCohort(millionClientSpec())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		ids := sampleClientIDs(reg, 64, rng)
		if len(ids) != 64 {
			t.Fatalf("got %d ids, want 64", len(ids))
		}
		for i, id := range ids {
			if id < 0 || id >= reg.NumClients() || reg.ShardLen(id) == 0 {
				t.Fatalf("id %d ineligible", id)
			}
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("ids not strictly ascending: %d then %d", ids[i-1], id)
			}
		}
	}
	// Deterministic: same rng stream, same sample.
	a := sampleClientIDs(reg, 64, rand.New(rand.NewSource(5)))
	b := sampleClientIDs(reg, 64, rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling is not a deterministic function of the rng stream")
		}
	}
}

func TestSampleClientIDsSmallAndSparseCohorts(t *testing.T) {
	spec := data.MNISTLike(8, 4)
	train, _ := data.Generate(spec, 1)
	// k ≥ eligible: every eligible client, ascending.
	reg := data.NewCohort([]*data.Dataset{train, nil, train, nil, train})
	ids := sampleClientIDs(reg, 10, rand.New(rand.NewSource(1)))
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("k≥eligible should return all eligible ascending, got %v", ids)
	}
	// Sparse cohort (2 eligible out of many): the rejection-sampling
	// bound trips and the reservoir fallback must still find them.
	sparse := make([]*data.Dataset, 50_000)
	sparse[123] = train
	sparse[45_678] = train
	ids = sampleClientIDs(data.NewCohort(sparse), 2, rand.New(rand.NewSource(2)))
	if len(ids) != 2 || ids[0] != 123 || ids[1] != 45_678 {
		t.Fatalf("sparse cohort sample = %v, want [123 45678]", ids)
	}
	if got := sampleClientIDs(data.NewCohort(make([]*data.Dataset, 100)), 4, rand.New(rand.NewSource(3))); len(got) != 0 {
		t.Fatalf("empty eligible set should return no ids, got %v", got)
	}
}

// TestMillionClientAggregationAllocations pins the tentpole's memory
// claim: one round of per-round sampling plus streaming aggregation
// over a million-client registry allocates O(K), independent of N.
// The accumulator itself is preallocated; sampling allocates the K-slot
// output and its dedup map and nothing proportional to the cohort.
func TestMillionClientAggregationAllocations(t *testing.T) {
	reg, err := data.NewLazyCohort(millionClientSpec())
	if err != nil {
		t.Fatal(err)
	}
	params := []*tensor.Tensor{
		tensor.Randn(rand.New(rand.NewSource(1)), 1, 64, 10),
		tensor.Randn(rand.New(rand.NewSource(2)), 1, 10),
	}
	agg := NewStreamAggregator(params)
	rng := rand.New(rand.NewSource(31))
	perRound := testing.AllocsPerRun(20, func() {
		agg.Reset()
		for _, id := range sampleClientIDs(reg, 64, rng) {
			agg.Fold(params, float64(reg.ShardLen(id)))
		}
		_ = agg.Finish()
	})
	// K=64 sampling costs ~a map + slice (tens of allocations). A bound
	// of 4·K catches any O(N) behavior (which would be millions) while
	// tolerating map-growth noise.
	if perRound > 256 {
		t.Fatalf("sampled round allocated %v times; sampling+aggregation must stay O(K), not O(N)", perRound)
	}
}

// TestMillionClientSampledPhase runs a real (tiny) FedAvg phase over a
// million-client lazy registry end to end: only the sampled clients'
// shards are ever materialized, so this completes in seconds.
func TestMillionClientSampledPhase(t *testing.T) {
	reg, err := data.NewLazyCohort(millionClientSpec())
	if err != nil {
		t.Fatal(err)
	}
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rand.New(rand.NewSource(3)))
	cfg := PhaseConfig{Rounds: 2, LocalSteps: 1, BatchSize: 4, LR: 0.05, SampleK: 8}
	res, err := RunPhaseRegistry(model, reg, cfg, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("ran %d rounds, want 2", res.Rounds)
	}
	for _, k := range res.ClientsPerRnd {
		if k != 8 {
			t.Fatalf("round selected %d clients, want 8", k)
		}
	}
}

func TestSampleKValidation(t *testing.T) {
	base := PhaseConfig{Rounds: 1, LocalSteps: 1, BatchSize: 4, LR: 0.05}
	neg := base
	neg.SampleK = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative SampleK must be invalid")
	}
	both := base
	both.SampleK, both.Participation = 4, 0.5
	if err := both.Validate(); err == nil {
		t.Fatal("SampleK with fractional Participation must be invalid")
	}
	negW := base
	negW.Workers = -2
	if err := negW.Validate(); err == nil {
		t.Fatal("negative Workers must be invalid")
	}
	ok := base
	ok.SampleK, ok.Workers = 4, 2
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSampledSequentialMatchesConcurrent: a sampled phase is bitwise
// identical whether run inline or on the worker pool, at any width.
func TestSampledSequentialMatchesConcurrent(t *testing.T) {
	_, parts, _ := testSetup(t, 10, 0)
	reg := data.NewCohort(parts)
	factory, seqModel := testFactory()
	cfg := PhaseConfig{Rounds: 3, LocalSteps: 2, BatchSize: 8, LR: 0.05, SampleK: 4}
	if _, err := RunPhaseRegistry(seqModel, reg, cfg, rand.New(rand.NewSource(70))); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		conModel := factory()
		conModel.SetParams(nn.NewConvNet(nn.ConvNetConfig{
			InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2,
		}, rand.New(rand.NewSource(3))).CloneParams())
		wcfg := cfg
		wcfg.Workers = workers
		if _, err := RunPhaseConcurrentRegistry(context.Background(), conModel, factory, reg, wcfg,
			rand.New(rand.NewSource(70))); err != nil {
			t.Fatal(err)
		}
		p1, p2 := seqModel.ParamTensors(), conModel.ParamTensors()
		for i := range p1 {
			d1, d2 := p1[i].Data(), p2[i].Data()
			for j := range d1 {
				if d1[j] != d2[j] {
					t.Fatalf("workers=%d: param %d elem %d differs: %g vs %g", workers, i, j, d1[j], d2[j])
				}
			}
		}
	}
}

// TestSampledPhaseIsSeedDeterministic: same seed → identical model;
// different seed → different participants.
func TestSampledPhaseIsSeedDeterministic(t *testing.T) {
	_, parts, _ := testSetup(t, 10, 0)
	reg := data.NewCohort(parts)
	run := func(seed int64) []*tensor.Tensor {
		arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
		m := nn.NewConvNet(arch, rand.New(rand.NewSource(3)))
		cfg := PhaseConfig{Rounds: 2, LocalSteps: 2, BatchSize: 8, LR: 0.05, SampleK: 3}
		if _, err := RunPhaseRegistry(m, reg, cfg, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		return m.CloneParams()
	}
	a, b, c := run(9), run(9), run(10)
	same := func(x, y []*tensor.Tensor) bool {
		for i := range x {
			dx, dy := x[i].Data(), y[i].Data()
			for j := range dx {
				if dx[j] != dy[j] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed must give bitwise-identical sampled phases")
	}
	if same(a, c) {
		t.Fatal("different seeds should select different participants/noise")
	}
}
