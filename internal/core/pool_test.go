package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// tinyConfig and tinyCohort are small enough that a full Train stays in
// short mode, and so under the race detector: a 4-class 6×6 task on 4
// clients, 2 rounds of 2 local steps.
func tinyConfig(seed int64) Config {
	return Config{
		Arch:    nn.ConvNetConfig{InputH: 6, InputW: 6, InputC: 1, Classes: 4, Width: 4, Depth: 1},
		Train:   PhaseParams{Rounds: 2, LocalSteps: 2, BatchSize: 8, LR: 0.1},
		Unlearn: PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.02},
		Recover: PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
		Relearn: PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
		Distill: distill.Config{Scale: 2, Steps: 1, LR: 0.1, RealBatch: 8, Eps: 1e-6},
		Augment: true,
		Seed:    seed,
	}
}

func tinyCohort() *data.Cohort {
	spec := data.Spec{Name: "tiny", H: 6, W: 6, C: 1, Classes: 4,
		TrainPerClass: 8, TestPerClass: 4, Noise: 0.1, Jitter: 1}
	train, _ := data.Generate(spec, 5)
	return data.NewCohort(data.PartitionIID(train, 4, rand.New(rand.NewSource(6))))
}

func requireSameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d values", what, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %g, want %g", what, i, got[i], want[i])
		}
	}
}

func requireSameSets(t *testing.T, want, got *distill.Matcher) {
	t.Helper()
	if len(want.Sets) != len(got.Sets) {
		t.Fatalf("%d synthetic sets, want %d", len(got.Sets), len(want.Sets))
	}
	for id, ws := range want.Sets {
		gs := got.Sets[id]
		if gs == nil || gs.Len() != ws.Len() {
			t.Fatalf("client %d: synthetic set %v, want %d samples", id, gs, ws.Len())
		}
		for i := range ws.X {
			if gs.Y[i] != ws.Y[i] {
				t.Fatalf("client %d sample %d: label %d, want %d", id, i, gs.Y[i], ws.Y[i])
			}
			requireSameBits(t, "synthetic pixels", ws.X[i].Data(), gs.X[i].Data())
		}
	}
}

func flat(m *nn.Model) []float64 {
	var out []float64
	for _, p := range m.ParamTensors() {
		out = append(out, p.Data()...)
	}
	return out
}

// inlineTrain is the training phase Train replaced — distill.NewMatcher
// plus the inline runner on the system's own RNG stream — watched by a
// monitor with hc.
func inlineTrain(t *testing.T, cfg Config, clients *data.Cohort, hc health.Config) (*nn.Model, *distill.Matcher, optim.Counter, *health.Monitor, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := nn.NewConvNet(cfg.Arch, rng)
	matcher := distill.NewMatcher(cfg.Distill, clients, rng)
	mon := health.New(hc, nil)
	var counter optim.Counter
	_, err := fl.RunPhaseRegistry(model, clients, fl.PhaseConfig{
		Rounds: cfg.Train.Rounds, LocalSteps: cfg.Train.LocalSteps, BatchSize: cfg.Train.BatchSize,
		LR: cfg.Train.LR, Hook: matcher.Hook(), Counter: &counter, Health: mon, Phase: "train",
	}, rng)
	return model, matcher, counter, mon, err
}

// pooledTrain runs Train on a pool of workers workers (GOMAXPROCS is
// the pool's size) with telemetry and a monitor with hc attached.
func pooledTrain(t *testing.T, cfg Config, clients *data.Cohort, hc health.Config, workers int) (*System, fl.PhaseResult, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	cfg.Telemetry = telemetry.NewPipeline(telemetry.NewRegistry(), clients.NumClients())
	cfg.Health = health.New(hc, cfg.Telemetry)
	sys, err := NewSystem(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Train()
	return sys, res, err
}

// TestTrainPooledMatchesInline pins Train's pooled training phase to
// the inline one bit for bit in parameters, every synthetic set and
// both cost counters, at 1, 2 and 3 workers, with telemetry and a
// health monitor attached (observers that the workers share). The
// monitor samples every third call, so the steps it watches, the
// extremes it keeps and the verdict of a tripping run must not depend
// on the schedule either. scripts/check.sh runs it repeatedly under
// -race.
func TestTrainPooledMatchesInline(t *testing.T) {
	cfg, clients := tinyConfig(11), tinyCohort()
	hc := health.Config{SampleEvery: 3}
	model, matcher, counter, mon, err := inlineTrain(t, cfg, clients, hc)
	if err != nil {
		t.Fatal(err)
	}
	want := mon.Summary()
	if want.MaxGradNorm <= 0 || want.MaxUpdateRatio <= 0 {
		t.Fatalf("inline run sampled nothing: %+v", want)
	}
	// Half the largest sampled gradient norm trips the watchdog partway
	// through the phase, on whichever observation folds first.
	tripping := hc
	tripping.GradNormMax = want.MaxGradNorm / 2
	_, _, _, tripMon, tripErr := inlineTrain(t, cfg, clients, tripping)
	var wantVerdict *health.UnhealthyError
	if !errors.As(tripErr, &wantVerdict) {
		t.Fatalf("inline run with GradNormMax %g: err %v, want a watchdog verdict", tripping.GradNormMax, tripErr)
	}

	for _, workers := range []int{1, 2, 3} {
		sys, res, err := pooledTrain(t, cfg, clients, hc, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameBits(t, "parameters", flat(model), flat(sys.Model))
		requireSameSets(t, matcher, sys.Matcher)
		if sys.Counter != counter || sys.Matcher.Counter != matcher.Counter {
			t.Fatalf("workers=%d: counters %+v/%+v, inline %+v/%+v",
				workers, sys.Counter, sys.Matcher.Counter, counter, matcher.Counter)
		}
		if res.ClientTime < sys.Matcher.DDTime || sys.Matcher.DDTime <= 0 {
			t.Fatalf("workers=%d: client time %v below distillation time %v", workers, res.ClientTime, sys.Matcher.DDTime)
		}
		if got := sys.Cfg.Health.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: health %+v, inline %+v", workers, got, want)
		}

		sys, _, err = pooledTrain(t, cfg, clients, tripping, workers)
		var verdict *health.UnhealthyError
		if !errors.As(err, &verdict) || verdict.Verdict != wantVerdict.Verdict {
			t.Fatalf("workers=%d: err %v, inline %v", workers, err, tripErr)
		}
		if got, want := sys.Cfg.Health.Summary(), tripMon.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: tripped health %+v, inline %+v", workers, got, want)
		}
	}
}

// TestFineTuneIsDeterministic: fine-tuning draws from the system's RNG
// stream client by client, so the synthetic sets must not depend on the
// order a map happens to iterate in.
func TestFineTuneIsDeterministic(t *testing.T) {
	clients := tinyCohort()
	train := func() *System {
		t.Helper()
		cfg := tinyConfig(12)
		cfg.FineTune = &distill.FineTuneConfig{OuterSteps: 2, InnerSteps: 2, ModelLR: 0.05}
		sys, err := NewSystem(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Train(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	want := train()
	for run := 0; run < 3; run++ {
		got := train()
		requireSameSets(t, want.Matcher, got.Matcher)
		if got.Counter != want.Counter {
			t.Fatalf("run %d: counter %+v, want %+v", run, got.Counter, want.Counter)
		}
	}
}

// phaseCases are the request scripts TestPhasesPooledMatchInline runs
// on a trained tiny system: every phase besides Train, at every request
// granularity.
var phaseCases = []struct {
	name string
	run  func(*System) error
}{
	{"unlearn-class", func(s *System) error { _, err := s.Unlearn(Request{Kind: ClassLevel, Class: 1}); return err }},
	{"unlearn-client", func(s *System) error { _, err := s.Unlearn(Request{Kind: ClientLevel, Client: 2}); return err }},
	{"unlearn-sample", func(s *System) error {
		_, err := s.Unlearn(Request{Kind: SampleLevel, Client: 0, Samples: []int{0, 1}})
		return err
	}},
	{"unlearn-batch4", func(s *System) error {
		_, err := s.UnlearnBatch([]Request{
			{Kind: ClassLevel, Class: 1}, {Kind: ClientLevel, Client: 2},
			{Kind: SampleLevel, Client: 0, Samples: []int{0}}, {Kind: ClassLevel, Class: 3},
		})
		return err
	}},
	{"recover2-relearn", func(s *System) error {
		req := Request{Kind: ClassLevel, Class: 2}
		if _, err := s.Unlearn(req); err != nil {
			return err
		}
		if _, err := s.Recover(2); err != nil {
			return err
		}
		_, err := s.Relearn(req)
		return err
	}},
}

// phaseState is a trained tiny system with sub-class groups (so
// sample-level requests resolve), saved once so every run below starts
// from the same bytes.
func phaseState(t *testing.T) (Config, *data.Cohort, []byte) {
	t.Helper()
	cfg, clients := tinyConfig(13), tinyCohort()
	cfg.Distill.Groups = 2
	cfg.Workers = 1
	sys, err := NewSystem(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, clients, buf.Bytes()
}

// runPhases restores state into a system with the given pool size, a
// monitor with hc and a telemetry pipeline, and runs script on it.
func runPhases(t *testing.T, cfg Config, clients *data.Cohort, state []byte, hc health.Config,
	workers int, script func(*System) error) (*System, error) {
	t.Helper()
	cfg.Workers = workers
	cfg.Telemetry = telemetry.NewPipeline(telemetry.NewRegistry(), clients.NumClients())
	cfg.Health = health.New(hc, cfg.Telemetry)
	sys, err := NewSystem(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	return sys, script(sys)
}

// TestPhasesPooledMatchInline extends TestTrainPooledMatchesInline to
// every other phase: unlearning of each granularity, a mixed batch,
// extra recovery rounds and relearning, on the pool (Workers 0 at
// GOMAXPROCS 1, 2 and 3) against the inline phases (Workers 1), bit for
// bit in parameters, the cost counter and the health summary, and with
// the same verdict when the watchdog trips. scripts/check.sh runs it
// repeatedly under -race.
func TestPhasesPooledMatchInline(t *testing.T) {
	cfg, clients, state := phaseState(t)
	hc := health.Config{SampleEvery: 3}
	for _, c := range phaseCases {
		t.Run(c.name, func(t *testing.T) {
			inline, err := runPhases(t, cfg, clients, state, hc, 1, c.run)
			if err != nil {
				t.Fatal(err)
			}
			want := inline.Cfg.Health.Summary()
			if want.MaxGradNorm <= 0 {
				t.Fatalf("inline run sampled nothing: %+v", want)
			}
			tripping := hc
			tripping.GradNormMax = want.MaxGradNorm / 2
			tripped, tripErr := runPhases(t, cfg, clients, state, tripping, 1, c.run)
			var wantVerdict *health.UnhealthyError
			if !errors.As(tripErr, &wantVerdict) {
				t.Fatalf("inline run with GradNormMax %g: err %v, want a watchdog verdict", tripping.GradNormMax, tripErr)
			}

			for _, procs := range []int{1, 2, 3} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					sys, err := runPhases(t, cfg, clients, state, hc, 0, c.run)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
					}
					requireSameBits(t, "parameters", flat(inline.Model), flat(sys.Model))
					if sys.Counter != inline.Counter {
						t.Fatalf("GOMAXPROCS=%d: counter %+v, inline %+v", procs, sys.Counter, inline.Counter)
					}
					if got := sys.Cfg.Health.Summary(); !reflect.DeepEqual(got, want) {
						t.Fatalf("GOMAXPROCS=%d: health %+v, inline %+v", procs, got, want)
					}

					sys, err = runPhases(t, cfg, clients, state, tripping, 0, c.run)
					var verdict *health.UnhealthyError
					if !errors.As(err, &verdict) || verdict.Verdict != wantVerdict.Verdict {
						t.Fatalf("GOMAXPROCS=%d: err %v, inline %v", procs, err, tripErr)
					}
					if got, want := sys.Cfg.Health.Summary(), tripped.Cfg.Health.Summary(); !reflect.DeepEqual(got, want) {
						t.Fatalf("GOMAXPROCS=%d: tripped health %+v, inline %+v", procs, got, want)
					}
					requireSameBits(t, "tripped parameters", flat(tripped.Model), flat(sys.Model))
				}()
			}
		})
	}
}

// TestRelearnHonoursParticipation: every phase's config comes from the
// same builder, so Relearn samples Participation of the clients per
// round like Recover does. At one sample per step, the relearn phase's
// gradient evaluations count the clients it trains, and 0.5 halves
// them on the four clients that hold the class.
func TestRelearnHonoursParticipation(t *testing.T) {
	cfg, clients, state := phaseState(t)
	req := Request{Kind: ClassLevel, Class: 1}
	relearnEvals := func(participation float64) int {
		t.Helper()
		c := cfg
		c.Relearn.Participation = participation
		c.Relearn.BatchSize = 1
		evals := 0
		_, err := runPhases(t, c, clients, state, health.Config{}, 1, func(s *System) error {
			if _, err := s.Unlearn(req); err != nil {
				return err
			}
			before := s.Counter.GradEvals
			_, err := s.Relearn(req)
			evals = s.Counter.GradEvals - before
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return evals
	}
	full, half := relearnEvals(0), relearnEvals(0.5)
	if full == 0 || 2*half != full {
		t.Fatalf("relearn gradient evaluations: %d at participation 0.5, %d at 1; want half", half, full)
	}
}
