package fl

import (
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// BenchmarkSampledRound measures one sampled FedAvg round at registry
// scale: K=64 participants drawn from a million-client lazy cohort,
// folded through the streaming aggregator. The per-op figure is the
// tentpole's scaling claim in benchmark form — it must not grow with
// the cohort size, only with K and the model.
func BenchmarkSampledRound(b *testing.B) {
	reg, err := data.NewLazyCohort(data.PartitionSpec{
		Data:             data.MNISTLike(8, 4),
		Clients:          1_000_000,
		SamplesPerClient: 8,
		Seed:             5,
		Scheme:           data.SchemeIID,
	})
	if err != nil {
		b.Fatal(err)
	}
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rand.New(rand.NewSource(3)))
	cfg := PhaseConfig{Rounds: 1, LocalSteps: 1, BatchSize: 4, LR: 0.05, SampleK: 64}
	rng := rand.New(rand.NewSource(4))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPhaseRegistry(model, reg, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedAvgRound measures one full FedAvg round — broadcast,
// local steps on every client, weighted aggregation — on the small
// test substrate: the FL layer's wall-time figure.
func BenchmarkFedAvgRound(b *testing.B) {
	spec := data.MNISTLike(8, 12)
	train, _ := data.Generate(spec, 1)
	parts := data.PartitionIID(train, 4, rand.New(rand.NewSource(2)))
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rand.New(rand.NewSource(3)))
	cfg := PhaseConfig{Rounds: 1, LocalSteps: 5, BatchSize: 16, LR: 0.1}
	rng := rand.New(rand.NewSource(4))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPhase(model, parts, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}
