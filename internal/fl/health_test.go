package fl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/telemetry/health"
)

// TestHealthDoesNotPerturbTraining reruns the same seeded phase with
// and without a health monitor attached — at the densest sampling
// cadence — and requires bit-for-bit identical parameters in both the
// sequential and the concurrent runtime. The monitor observes gradient
// norms and losses but its readings never feed the numerics.
func TestHealthDoesNotPerturbTraining(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	cfg := PhaseConfig{Rounds: 4, LocalSteps: 3, BatchSize: 8, LR: 0.05}

	run := func(concurrent bool, mon *health.Monitor) []float64 {
		t.Helper()
		factory, model := testFactory()
		c := cfg
		c.Health = mon
		var err error
		if concurrent {
			_, err = RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), c,
				rand.New(rand.NewSource(84)))
		} else {
			_, err = RunPhase(model, parts, c, rand.New(rand.NewSource(84)))
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
		watched := run(concurrent, health.New(health.Config{SampleEvery: 1}, nil))
		if len(plain) != len(watched) {
			t.Fatalf("param count mismatch: %d vs %d", len(plain), len(watched))
		}
		for i := range plain {
			if plain[i] != watched[i] {
				t.Fatalf("concurrent=%v: param elem %d differs with health monitoring: %g vs %g",
					concurrent, i, plain[i], watched[i])
			}
		}
	}
}

// TestHealthWatchdogAbortsPhase poisons the model with a NaN parameter
// and runs a phase under the watchdog: the round-boundary check must
// abort the phase with an error unwrapping to health.ErrUnhealthy, in
// both runtimes.
func TestHealthWatchdogAbortsPhase(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	cfg := PhaseConfig{Rounds: 5, LocalSteps: 2, BatchSize: 8, LR: 0.05, Phase: "unlearn"}

	for _, concurrent := range []bool{false, true} {
		factory, model := testFactory()
		model.ParamTensors()[0].Data()[0] = math.NaN()
		c := cfg
		c.Health = health.New(health.Config{}, nil)
		var err error
		if concurrent {
			_, err = RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), c,
				rand.New(rand.NewSource(85)))
		} else {
			_, err = RunPhase(model, parts, c, rand.New(rand.NewSource(85)))
		}
		if err == nil || !errors.Is(err, health.ErrUnhealthy) {
			t.Fatalf("concurrent=%v: err = %v, want health.ErrUnhealthy", concurrent, err)
		}
		var uh *health.UnhealthyError
		if !errors.As(err, &uh) {
			t.Fatalf("concurrent=%v: %v does not carry a watchdog verdict", concurrent, err)
		}
		if uh.Verdict.Phase != "unlearn" {
			t.Fatalf("concurrent=%v: verdict phase = %q, want unlearn", concurrent, uh.Verdict.Phase)
		}
	}
}
