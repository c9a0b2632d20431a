package fl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/tensor"
)

func testFactory() (ModelFactory, *nn.Model) {
	cfg := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	factory := func() *nn.Model { return nn.NewConvNet(cfg, rand.New(rand.NewSource(99))) }
	return factory, nn.NewConvNet(cfg, rand.New(rand.NewSource(3)))
}

// TestConcurrentMatchesSequentialExactly: the slice-based sequential
// runner and the worker pool over the same clients give bitwise
// identical models.
func TestConcurrentMatchesSequentialExactly(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	factory, seqModel := testFactory()
	conModel := factory() // distinct instance…
	conModel.SetParams(seqModel.CloneParams())

	cfg := PhaseConfig{Rounds: 4, LocalSteps: 3, BatchSize: 8, LR: 0.05}
	if _, err := RunPhase(seqModel, parts, cfg, rand.New(rand.NewSource(70))); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPhaseConcurrentRegistry(context.Background(), conModel, factory, data.NewCohort(parts), cfg,
		rand.New(rand.NewSource(70))); err != nil {
		t.Fatal(err)
	}
	p1, p2 := seqModel.ParamTensors(), conModel.ParamTensors()
	for i := range p1 {
		for j := range p1[i].Data() {
			if p1[i].Data()[j] != p2[i].Data()[j] {
				t.Fatalf("param %d elem %d differs: %g vs %g", i, j, p1[i].Data()[j], p2[i].Data()[j])
			}
		}
	}
}

// TestPoolMatchesSequentialExactly is the executor-equivalence table:
// both executors run the same round loop and fold in selection order,
// so the pool reproduces the inline trajectory bit for bit at any
// worker count (including more workers than clients) and under every
// config — partial participation, dropout, reweighting, update hooks
// and sampled mode alike.
func TestPoolMatchesSequentialExactly(t *testing.T) {
	_, parts, _ := testSetup(t, 6, 0)
	reg := data.NewCohort(parts)
	base := PhaseConfig{Rounds: 3, LocalSteps: 2, BatchSize: 8, LR: 0.05}
	with := func(f func(*PhaseConfig)) PhaseConfig { c := base; f(&c); return c }
	rows := []struct {
		name string
		cfg  PhaseConfig
		hook bool
	}{
		{"full participation", base, false},
		{"participation 0.5", with(func(c *PhaseConfig) { c.Participation = 0.5 }), true},
		{"dropout 0.3", with(func(c *PhaseConfig) { c.DropoutProb = 0.3 }), true},
		{"weight fn", with(func(c *PhaseConfig) {
			c.WeightFn = func(id, n int) float64 { return float64((id % 3) * n) } // client 0, 3 weigh nothing
		}), false},
		{"update hook", base, true},
		{"participation, dropout, weight fn", with(func(c *PhaseConfig) {
			c.Participation, c.DropoutProb = 0.5, 0.3
			c.WeightFn = func(id, n int) float64 { return float64(id + n) }
		}), true},
		{"sample k", with(func(c *PhaseConfig) { c.SampleK = 4 }), true},
	}

	type update struct {
		round, client int
		before, after uint64 // digests of the hook's parameter sets
	}
	digest := func(ps []*tensor.Tensor) uint64 {
		var h uint64
		for _, p := range ps {
			for _, v := range p.Data() {
				h = h*31 + math.Float64bits(v)
			}
		}
		return h
	}
	run := func(cfg PhaseConfig, hook bool, workers int) ([]float64, PhaseResult, []update) {
		t.Helper()
		factory, model := testFactory()
		var updates []update
		if hook {
			cfg.UpdateHook = func(round, clientID int, before, after []*tensor.Tensor) {
				updates = append(updates, update{round, clientID, digest(before), digest(after)})
			}
		}
		var res PhaseResult
		var err error
		if workers == 0 {
			res, err = RunPhaseRegistry(model, reg, cfg, rand.New(rand.NewSource(70)))
		} else {
			cfg.Workers = workers
			res, err = RunPhaseConcurrentRegistry(context.Background(), model, factory, reg, cfg,
				rand.New(rand.NewSource(70)))
		}
		if err != nil {
			t.Fatal(err)
		}
		res.WallTime, res.ClientTime = 0, 0 // timings, not numerics
		return flatParams(model), res, updates
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			params, res, updates := run(row.cfg, row.hook, 0)
			if row.hook && len(updates) == 0 {
				t.Fatal("the update hook never ran")
			}
			for _, workers := range []int{1, 3, 8} { // 8: more workers than clients
				p, r, u := run(row.cfg, row.hook, workers)
				for i := range params {
					if math.Float64bits(params[i]) != math.Float64bits(p[i]) {
						t.Fatalf("workers=%d: param elem %d differs: %g vs %g", workers, i, params[i], p[i])
					}
				}
				if !reflect.DeepEqual(res, r) {
					t.Fatalf("workers=%d: result %+v, sequential %+v", workers, r, res)
				}
				if !reflect.DeepEqual(updates, u) {
					t.Fatalf("workers=%d: update hook saw %v, sequential %v", workers, u, updates)
				}
			}
		})
	}
}

// TestPoolCountsCostOnServer is the race regression for the cost
// counter: each client counts its own local steps and the server adds
// them in fold order, dropped clients included, so the pool — entered
// with a ctx or through PhaseConfig.Factory — writes cfg.Counter from
// one goroutine only and reaches the inline runner's total. Run it
// under -race.
func TestPoolCountsCostOnServer(t *testing.T) {
	_, parts, _ := testSetup(t, 6, 0)
	reg := data.NewCohort(parts)
	factory, _ := testFactory()
	base := PhaseConfig{Rounds: 3, LocalSteps: 2, BatchSize: 8, LR: 0.05, DropoutProb: 0.3}
	run := func(workers int, viaCtx bool) (optim.Counter, PhaseResult, []float64) {
		t.Helper()
		model := factory()
		var counter optim.Counter
		cfg := base
		cfg.Counter, cfg.Workers = &counter, workers
		var res PhaseResult
		var err error
		switch {
		case workers == 0:
			res, err = RunPhaseRegistry(model, reg, cfg, rand.New(rand.NewSource(77)))
		case viaCtx:
			res, err = RunPhaseConcurrentRegistry(context.Background(), model, factory, reg, cfg,
				rand.New(rand.NewSource(77)))
		default:
			cfg.Factory = factory
			res, err = RunPhaseRegistry(model, reg, cfg, rand.New(rand.NewSource(77)))
		}
		if err != nil {
			t.Fatal(err)
		}
		return counter, res, flatParams(model)
	}
	want, wantRes, wantParams := run(0, false)
	if wantRes.Dropped == 0 {
		t.Fatal("no client dropped: the test does not cover dropped clients' cost")
	}
	if full := base.Rounds * len(parts) * base.LocalSteps * base.BatchSize; want.GradEvals != full {
		t.Fatalf("inline counted %d grad evals, want %d (every trained client, dropped ones too)", want.GradEvals, full)
	}
	if wantRes.ClientTime <= 0 {
		t.Fatalf("inline ClientTime %v", wantRes.ClientTime)
	}
	for _, workers := range []int{1, 2, 3} {
		for _, viaCtx := range []bool{true, false} {
			got, res, params := run(workers, viaCtx)
			if got != want {
				t.Fatalf("workers=%d ctx=%v: counter %+v, inline %+v", workers, viaCtx, got, want)
			}
			if res.Dropped != wantRes.Dropped || res.ClientTime <= 0 {
				t.Fatalf("workers=%d ctx=%v: result %+v, inline %+v", workers, viaCtx, res, wantRes)
			}
			requireSameFloats(t, "pooled params", wantParams, params)
		}
	}
}

// TestPoolCapsWorkersAtSelectable: a round never trains more clients
// than the registry holds eligible, the participation fraction of them,
// or K in sampled mode, so the pool builds no worker model beyond that
// however many workers it is allowed. A pool that would have one worker
// is not started at all: the phase trains inline, with no factory call.
func TestPoolCapsWorkersAtSelectable(t *testing.T) {
	_, parts, _ := testSetup(t, 3, 0)
	full := data.NewCohort(parts)
	// One non-empty shard of four: a client- or sample-level SGA phase.
	single := data.NewCohort([]*data.Dataset{nil, parts[1], nil, parts[1].Subset(nil)})
	factory, _ := testFactory()
	for _, tc := range []struct {
		reg                          *data.Cohort
		gomaxprocs, workers, sampleK int
		participation                float64
		want                         int
	}{
		{full, 0, 8, 0, 0, 3}, {full, 0, 2, 0, 0, 2}, {full, 0, 8, 2, 0, 2}, {full, 0, 8, 0, 0.7, 2},
		{full, 0, 0, 1, 0, 0}, {full, 0, 1, 0, 0, 0}, {full, 1, 0, 0, 0, 0}, {full, 2, 0, 0, 0, 2},
		{single, 0, 8, 0, 0, 0}, {single, 0, 0, 0, 0, 0},
	} {
		var built atomic.Int32
		cfg := PhaseConfig{Rounds: 2, LocalSteps: 1, BatchSize: 8, LR: 0.05,
			Workers: tc.workers, SampleK: tc.sampleK, Participation: tc.participation,
			Factory: func() *nn.Model { built.Add(1); return factory() }}
		func() {
			if tc.gomaxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.gomaxprocs))
			}
			if _, err := RunPhaseRegistry(factory(), tc.reg, cfg, rand.New(rand.NewSource(5))); err != nil {
				t.Fatal(err)
			}
		}()
		if got := int(built.Load()); got != tc.want {
			t.Errorf("%d clients, GOMAXPROCS=%d workers=%d sampleK=%d participation=%g: built %d worker models, want %d",
				tc.reg.NumClients(), tc.gomaxprocs, tc.workers, tc.sampleK, tc.participation, got, tc.want)
		}
	}
}

func TestConcurrentLearns(t *testing.T) {
	_, parts, test := testSetup(t, 4, 0)
	factory, model := testFactory()
	if _, err := RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), PhaseConfig{
		Rounds: 12, LocalSteps: 5, BatchSize: 16, LR: 0.1,
	}, rand.New(rand.NewSource(71))); err != nil {
		t.Fatal(err)
	}
	if acc := eval.Accuracy(model, test); acc < 0.65 {
		t.Fatalf("concurrent training accuracy %.2f", acc)
	}
}

// TestConcurrentCancellation: a deadline that passes mid-round stops the
// phase with the context's error. The hook holds the second local step
// until the deadline has passed, so the phase cannot finish first; a
// phase that ignored its context would finish its three rounds and
// return nil.
func TestConcurrentCancellation(t *testing.T) {
	_, parts, _ := testSetup(t, 2, 0)
	factory, model := testFactory()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var steps atomic.Int64
	_, err := RunPhaseConcurrentRegistry(ctx, model, factory, data.NewCohort(parts), PhaseConfig{
		Rounds: 3, LocalSteps: 5, BatchSize: 16, LR: 0.1,
		Hook: func(StepContext) {
			if steps.Add(1) == 2 {
				<-ctx.Done()
			}
		},
	}, rand.New(rand.NewSource(72)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestConcurrentValidation(t *testing.T) {
	_, parts, _ := testSetup(t, 2, 0)
	_, model := testFactory()
	if _, err := RunPhaseConcurrentRegistry(context.Background(), model, nil, data.NewCohort(parts),
		PhaseConfig{Rounds: 1, LocalSteps: 1, BatchSize: 4, LR: 0.1},
		rand.New(rand.NewSource(73))); err == nil {
		t.Fatal("expected error for missing factory")
	}
	factory, _ := testFactory()
	empty := []*data.Dataset{nil}
	if _, err := RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(empty),
		PhaseConfig{Rounds: 1, LocalSteps: 1, BatchSize: 4, LR: 0.1},
		rand.New(rand.NewSource(74))); err == nil {
		t.Fatal("expected error for no data")
	}
}

func TestConcurrentPartialParticipation(t *testing.T) {
	_, parts, _ := testSetup(t, 6, 0)
	factory, model := testFactory()
	res, err := RunPhaseConcurrentRegistry(context.Background(), model, factory, data.NewCohort(parts), PhaseConfig{
		Rounds: 3, LocalSteps: 1, BatchSize: 8, LR: 0.05, Participation: 0.5,
	}, rand.New(rand.NewSource(75)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.ClientsPerRnd {
		if n != 3 {
			t.Fatalf("participation wrong: %v", res.ClientsPerRnd)
		}
	}
}

// TestConcurrentCancelMidSampledRound is the shutdown regression for
// the worker pool: cancelling from inside the fold of a sampled round —
// workers still holding in-flight tasks — must surface context.Canceled
// promptly and wind every worker down without deadlocking on the tasks
// or updates channels. Cancellation is observed at channel selects, so
// the round in flight when cancel lands may still complete and fold;
// the invariant is that the model only ever reflects *complete* rounds
// — a cancelled round's partial aggregator state is discarded, never
// folded in. Sampled concurrent is bitwise-identical to the sequential
// runner, so "complete rounds only" is checkable exactly: the cancelled
// model must equal some sequential prefix of the same trajectory. Run
// under -race via make check, this also shakes out shutdown races.
func TestConcurrentCancelMidSampledRound(t *testing.T) {
	_, parts, _ := testSetup(t, 6, 0)
	factory, _ := testFactory()
	model := factory() // same initial params as the sequential references
	reg := data.NewCohort(parts)

	const rounds = 3
	base := PhaseConfig{
		Rounds: rounds, LocalSteps: 2, BatchSize: 8, LR: 0.05,
		SampleK: 4,
	}

	// Sequential reference snapshots: params after 0, 1, … complete
	// rounds of the identical trajectory (same seed, same config).
	snapshots := make([][]*tensor.Tensor, rounds+1)
	for r := 0; r <= rounds; r++ {
		ref := factory()
		cfg := base
		cfg.Rounds = r
		if _, err := RunPhaseRegistry(ref, reg, cfg, rand.New(rand.NewSource(76))); err != nil {
			t.Fatal(err)
		}
		snapshots[r] = ref.CloneParams()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	folded := 0
	cfg := base
	cfg.Workers = 3
	cfg.UpdateHook = func(round, clientID int, beforeP, afterP []*tensor.Tensor) {
		folded++
		if folded == 1 {
			cancel() // first fold of round 0: the rest are in flight
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunPhaseConcurrentRegistry(ctx, model, factory, reg, cfg,
			rand.New(rand.NewSource(76)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("expected cancellation error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("phase did not shut down after mid-round cancel")
	}

	// The model must sit exactly on a round boundary: equal to one of
	// the sequential prefixes, bit for bit. A partial fold matches none.
	after := model.ParamTensors()
	boundary := -1
	for r := 0; r <= rounds && boundary < 0; r++ {
		same := true
		for i := range after {
			a, b := after[i].Data(), snapshots[r][i].Data()
			for j := range a {
				if a[j] != b[j] {
					same = false
					break
				}
			}
			if !same {
				break
			}
		}
		if same {
			boundary = r
		}
	}
	if boundary < 0 {
		t.Fatal("cancelled model matches no complete-round boundary: a partial round was folded in")
	}
	if boundary == rounds {
		t.Fatalf("all %d rounds completed despite mid-round cancel", rounds)
	}
}
