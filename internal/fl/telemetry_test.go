package fl

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/telemetry"
)

func testPipeline(clients int) *telemetry.Pipeline {
	return telemetry.NewPipeline(telemetry.NewRegistry(), clients)
}

// TestConcurrentHookCancelsMidRound cancels the phase from inside a
// local-step hook — mid-round, with client workers in flight — and
// checks the server unwinds cleanly with the context error, timing the
// phase on the way out. A phase that ignored its context would finish
// its three rounds and return nil.
func TestConcurrentHookCancelsMidRound(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	factory, model := testFactory()
	pipe := testPipeline(len(parts))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var steps atomic.Int64
	cfg := PhaseConfig{
		Rounds: 3, LocalSteps: 5, BatchSize: 8, LR: 0.05, Telemetry: pipe,
		Hook: func(StepContext) {
			if steps.Add(1) == 4 {
				cancel()
			}
		},
	}
	res, err := RunPhaseConcurrentRegistry(ctx, model, factory, data.NewCohort(parts), cfg, rand.New(rand.NewSource(80)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps.Load() < 4 {
		t.Fatalf("hook ran %d steps before cancellation, want ≥4", steps.Load())
	}
	if got := pipe.PhaseSeconds.At(slices.Index(telemetry.PhaseNames, "fedavg")).Count(); got != 1 {
		t.Fatalf("PhaseSeconds count = %d, want 1", got)
	}
	if res.WallTime <= 0 {
		t.Fatalf("WallTime = %v after cancellation, want > 0", res.WallTime)
	}
}

// TestConcurrentDropoutRecordsDrops drives the dropout edge path with a
// pipeline attached: lost updates show up in the phase result, and
// rounds where all participants fail are still counted and timed.
func TestConcurrentDropoutRecordsDrops(t *testing.T) {
	_, parts, _ := testSetup(t, 4, 0)
	factory, model := testFactory()
	pipe := testPipeline(len(parts))

	rounds := 8
	res, err := RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), PhaseConfig{
		Rounds: rounds, LocalSteps: 2, BatchSize: 8, LR: 0.05,
		DropoutProb: 0.5, Telemetry: pipe,
	}, rand.New(rand.NewSource(81)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("dropout 0.5 over 8 rounds × 4 clients dropped nothing")
	}
	if got := pipe.Rounds.Value(); got != int64(rounds) {
		t.Fatalf("Rounds counter = %d, want %d (all-dropout rounds must still close)", got, rounds)
	}
	if got := pipe.RoundSeconds.Count(); got != int64(rounds) {
		t.Fatalf("RoundSeconds count = %d, want %d", got, rounds)
	}
}

// TestConcurrentTelemetryCounts checks the per-client instruments under
// the goroutine-per-client runtime (and, via `go test -race`, that the
// record paths are race-free when all workers share one pipeline).
func TestConcurrentTelemetryCounts(t *testing.T) {
	_, parts, _ := testSetup(t, 6, 0)
	factory, model := testFactory()
	pipe := testPipeline(len(parts))

	rounds, localSteps := 3, 4
	if _, err := RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), PhaseConfig{
		Rounds: rounds, LocalSteps: localSteps, BatchSize: 8, LR: 0.05,
		Telemetry: pipe,
	}, rand.New(rand.NewSource(82))); err != nil {
		t.Fatal(err)
	}

	var total int64
	for i := range parts {
		per := pipe.LocalSteps.At(i).Value()
		if per != int64(rounds*localSteps) {
			t.Errorf("client %d recorded %d local steps, want %d", i, per, rounds*localSteps)
		}
		total += per
	}
	if want := int64(rounds * localSteps * len(parts)); total != want {
		t.Fatalf("total local steps = %d, want %d", total, want)
	}
	if pipe.Samples.Value() == 0 {
		t.Fatal("no samples recorded")
	}
	if got := pipe.PhaseSeconds.At(slices.Index(telemetry.PhaseNames, "fedavg")).Count(); got != 1 {
		t.Fatalf("PhaseSeconds count = %d, want 1", got)
	}
}

// TestTelemetryDoesNotPerturbTraining reruns the same seeded phase with
// and without a pipeline attached: the trajectories must be bit-for-bit
// identical, in both the sequential and the concurrent runtime.
// Telemetry reads the clock but its readings never feed the numerics.
func TestTelemetryDoesNotPerturbTraining(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	cfg := PhaseConfig{Rounds: 4, LocalSteps: 3, BatchSize: 8, LR: 0.05}

	run := func(concurrent bool, pipe *telemetry.Pipeline) []float64 {
		t.Helper()
		factory, model := testFactory()
		c := cfg
		c.Telemetry = pipe
		var err error
		if concurrent {
			_, err = RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), c,
				rand.New(rand.NewSource(83)))
		} else {
			_, err = RunPhase(model, parts, c, rand.New(rand.NewSource(83)))
		}
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range model.ParamTensors() {
			flat = append(flat, p.Data()...)
		}
		return flat
	}

	for _, concurrent := range []bool{false, true} {
		plain := run(concurrent, nil)
		traced := run(concurrent, testPipeline(len(parts)))
		if len(plain) != len(traced) {
			t.Fatalf("param count mismatch: %d vs %d", len(plain), len(traced))
		}
		for i := range plain {
			if plain[i] != traced[i] {
				t.Fatalf("concurrent=%v: param elem %d differs with telemetry: %g vs %g",
					concurrent, i, plain[i], traced[i])
			}
		}
	}
}
