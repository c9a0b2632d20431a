// Package fl implements the federated-averaging substrate that QuickDrop
// and all baselines run on: clients hold private datasets, a logical
// parameter server orchestrates rounds, and every phase of the paper's
// Algorithm 1 — training, unlearning (gradient ascent), recovery,
// relearning — is a FedAvg phase differing only in data, direction and
// round count.
package fl

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
	"quickdrop/internal/tensor"
)

// StepContext is passed to a LocalStepHook after each local update step.
// It is the attachment point for in-situ dataset distillation (Algorithm 2
// runs gradient matching here, reusing the client's current model state).
type StepContext struct {
	Round    int
	Step     int
	ClientID int
	// Model is the client's live local model; parameters may be read but
	// must not be mutated by hooks.
	Model *nn.Model
	// Client is the dataset the step sampled from.
	Client *data.Dataset
	// BatchIdx are the dataset indices of the just-consumed minibatch.
	BatchIdx []int
	// Rng is the client's deterministic RNG stream.
	Rng *rand.Rand
}

// LocalStepHook observes client-local update steps.
type LocalStepHook func(ctx StepContext)

// PhaseConfig configures one FedAvg phase (Algorithm 1's FedAvg routine).
type PhaseConfig struct {
	Rounds     int
	LocalSteps int // T in the paper
	BatchSize  int
	LR         float64 // η_θ
	// Dir selects SGD (training/recovery/relearning) or SGA (unlearning).
	Dir optim.Direction
	// Participation is the fraction of eligible clients sampled per round;
	// 0 or 1 means full participation.
	Participation float64
	// SampleK, when positive, switches the phase into sampled mode: each
	// round draws K distinct eligible clients from the registry by
	// rejection sampling — without enumerating or allocating anything
	// proportional to the registered cohort — and per-client RNG streams
	// are derived from (phase seed, round, client ID) instead of being
	// pre-seeded per client. Sampled mode is the only way to run
	// registry-scale cohorts (millions of clients); it is mutually
	// exclusive with Participation. SampleK of 0 keeps the legacy
	// participation-fraction semantics bit for bit.
	SampleK int
	// Workers bounds RunPhaseConcurrentRegistry's worker pool; 0 selects
	// GOMAXPROCS. The pool size never affects numerics: aggregation
	// folds in selection order regardless of arrival order.
	Workers int
	// Hook, if set, runs after every local step.
	Hook LocalStepHook
	// UpdateHook, if set, receives each participating client's model
	// parameters before and after its local steps (cloned). FedEraser uses
	// this to record the historical updates it later calibrates.
	UpdateHook func(round, clientID int, before, after []*tensor.Tensor)
	// WeightFn, if set, overrides the aggregation weight of a client
	// (default |Z_i|). S2U uses this to scale the forgetting client down
	// and the remaining clients up.
	WeightFn func(clientID, datasetSize int) float64
	// DropoutProb injects client failures: each selected client crashes
	// after its local steps with this probability, so its update never
	// reaches the server. Rounds where every client fails leave the
	// global model unchanged (the server just moves on).
	DropoutProb float64
	// Counter, if set, accumulates gradient-evaluation costs.
	Counter *optim.Counter
	// Telemetry, if set, records round/client metrics and spans for this
	// phase. A nil pipeline is free: every record call is a nil-receiver
	// no-op and the hot path reads no clock.
	Telemetry *telemetry.Pipeline
	// Health, if set, watches the phase's numerics: per-step losses feed
	// the NaN tripwire and spike detector, the optimizer samples
	// per-layer gradient norms, and each aggregated round is gated on
	// the divergence watchdog — a tripped watchdog aborts the phase with
	// an error unwrapping to health.ErrUnhealthy. Observation is
	// read-only: trajectories are bitwise identical with or without a
	// monitor. A nil monitor is free (nil-receiver no-ops).
	Health *health.Monitor
	// Phase names this phase in telemetry ("train", "unlearn", …).
	// Empty means "fedavg".
	Phase string
}

// phaseName returns the telemetry label for this phase.
func (c PhaseConfig) phaseName() string {
	if c.Phase != "" {
		return c.Phase
	}
	return "fedavg"
}

// Validate reports configuration errors.
func (c PhaseConfig) Validate() error {
	if c.Rounds < 0 || c.LocalSteps <= 0 || c.BatchSize <= 0 || c.LR <= 0 {
		return fmt.Errorf("fl: invalid phase config %+v", c)
	}
	if c.Participation < 0 || c.Participation > 1 {
		return fmt.Errorf("fl: participation %v out of [0,1]", c.Participation)
	}
	if c.DropoutProb < 0 || c.DropoutProb >= 1 {
		return fmt.Errorf("fl: dropout probability %v out of [0,1)", c.DropoutProb)
	}
	if c.SampleK < 0 {
		return fmt.Errorf("fl: sample-k %d must be non-negative", c.SampleK)
	}
	if c.SampleK > 0 && c.Participation > 0 && c.Participation < 1 {
		return fmt.Errorf("fl: SampleK and Participation are mutually exclusive (got K=%d, fraction=%v)",
			c.SampleK, c.Participation)
	}
	if c.Workers < 0 {
		return fmt.Errorf("fl: workers %d must be non-negative", c.Workers)
	}
	return nil
}

// PhaseResult reports what a phase did.
type PhaseResult struct {
	Rounds        int
	WallTime      time.Duration
	SamplesUsed   int // total samples across participating clients
	ClientsPerRnd []int
	// Dropped counts client updates lost to injected failures.
	Dropped int
}

// RunPhase executes FedAvg over the given per-client datasets, mutating
// model in place. Clients with empty datasets are skipped (paper, Alg. 1:
// only clients with non-empty shards participate). The aggregation is the
// |Z_i|/|Z| weighted average over the round's participants.
//
// This is the slice-shaped convenience entry point: it wraps the slice
// in a data.Cohort and runs RunPhaseRegistry, which preserves the
// historical behaviour bit for bit.
func RunPhase(model *nn.Model, clients []*data.Dataset, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	return RunPhaseRegistry(model, data.NewCohort(clients), cfg, rng)
}

// RunPhaseRegistry executes FedAvg over a client registry, mutating
// model in place and training the selected clients one after another on
// model itself. With cfg.SampleK == 0 it replicates the historical
// slice-based RunPhase exactly — same RNG consumption, same fold order,
// same floats — over whatever the registry materializes. With SampleK >
// 0 it runs in sampled mode: per-round participant sets are drawn from
// the registry without enumerating the cohort, per-client RNG streams
// are derived from (phase seed, round, client ID), and per-round cost
// is O(K·shard + model) regardless of NumClients.
func RunPhaseRegistry(model *nn.Model, reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	return runPhase(model, reg, cfg, rng, trainInline)
}

// phase is one running FedAvg phase: what its executor reads (registry,
// config, the round's global snapshot, the clients' RNG layout) and
// what the server's fold step accumulates.
type phase struct {
	model *nn.Model
	reg   ClientRegistry
	cfg   PhaseConfig
	rng   *rand.Rand // the server's stream: selection and dropout draws
	// global is the round's snapshot every selected client starts from.
	// It is rewritten only between rounds, when no client is training.
	global []*tensor.Tensor
	// Legacy mode pre-seeds one stream per registered client — O(N),
	// acceptable for the slice-scale cohorts it exists for — because
	// that is exactly what the historical runner consumed from rng.
	// Sampled mode (clientRngs nil) derives a client's stream from
	// (phaseSeed, round, ID), so it never depends on who else was drawn.
	clientRngs []*rand.Rand
	phaseSeed  int64
	agg        *StreamAggregator
	res        PhaseResult
}

// executor trains one round's selected clients, each from ph.global,
// and hands every finished update to ph.fold in selection order.
type executor func(ph *phase, round int, selected []int) error

// runPhase is the one FedAvg round loop behind every runner; exec only
// decides where the selected clients train. Every exit after the phase
// starts closes the phase span, and every exit inside a round closes
// the round span.
func runPhase(model *nn.Model, reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand, exec executor) (PhaseResult, error) {
	if err := cfg.Validate(); err != nil {
		return PhaseResult{}, err
	}
	if reg == nil || reg.NumClients() == 0 {
		return PhaseResult{}, errNoData()
	}
	sampled := cfg.SampleK > 0
	var eligible []int
	if !sampled {
		eligible = make([]int, 0, reg.NumClients())
		for i := 0; i < reg.NumClients(); i++ {
			if reg.ShardLen(i) > 0 {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) == 0 {
			return PhaseResult{}, errNoData()
		}
	}

	// The phase timer measures wall time whether or not a telemetry
	// pipeline is attached; the reading flows only into
	// PhaseResult/eval.Cost — never the numerics.
	pt := cfg.Telemetry.StartPhase(cfg.phaseName())
	cfg.Health.BeginPhase(cfg.phaseName())
	ph := &phase{model: model, reg: reg, cfg: cfg, rng: rng, res: PhaseResult{Rounds: cfg.Rounds}}
	if sampled {
		ph.phaseSeed = rng.Int63()
	} else {
		ph.clientRngs = make([]*rand.Rand, reg.NumClients())
		for i := range ph.clientRngs {
			ph.clientRngs[i] = rand.New(rand.NewSource(rng.Int63()))
		}
	}
	// Snapshot and aggregation buffers are allocated once and reused
	// across rounds: parameter shapes never change mid-phase.
	ph.global = model.CloneParams()
	ph.agg = NewStreamAggregator(ph.global)

	var err error
	for round := 0; round < cfg.Rounds && err == nil; round++ {
		var selected []int
		if sampled {
			selected = sampleClientIDs(reg, cfg.SampleK, rng)
		} else {
			selected = selectClients(eligible, cfg.Participation, rng)
		}
		if len(selected) == 0 {
			err = errNoData()
			break
		}
		ph.res.ClientsPerRnd = append(ph.res.ClientsPerRnd, len(selected))
		rs := cfg.Telemetry.StartRound(round)
		for i, p := range model.ParamTensors() {
			ph.global[i].CopyFrom(p)
		}
		ph.agg.Reset()
		err = exec(ph, round, selected)
		aggregated := err == nil && ph.agg.TotalWeight() > 0
		if aggregated {
			model.SetParams(ph.agg.Finish())
		} else if err == nil {
			// No update carried weight: the server keeps the previous
			// global model. Under dropout that is a round where every
			// participant failed, and the server proceeds.
			model.SetParams(ph.global)
			if cfg.DropoutProb == 0 {
				err = fmt.Errorf("fl: round %d aggregated zero weight", round)
			}
		}
		cfg.Telemetry.EndRound(rs, len(selected))
		if aggregated {
			err = healthRound(cfg, round, model)
		}
	}
	ph.res.WallTime = pt.Stop()
	return ph.res, err
}

// trainInline is the sequential executor: each client trains on the
// caller's model in turn and is folded straight from its parameters —
// no clone, goroutine or channel per client.
func trainInline(ph *phase, round int, selected []int) error {
	for _, id := range selected {
		n := ph.train(ph.model, round, id)
		ph.fold(round, id, ph.model.ParamTensors(), n)
	}
	return nil
}

// train runs client id's local steps for round on m, starting from the
// round's global snapshot, and returns the client's sample count.
func (ph *phase) train(m *nn.Model, round, id int) int {
	// Materialize once per selection: a lazy registry re-renders the
	// shard on every Shard call.
	shard := ph.reg.Shard(id)
	var crng *rand.Rand
	if ph.clientRngs != nil {
		crng = ph.clientRngs[id]
	} else {
		crng = rand.New(rand.NewSource(data.DeriveSeed(ph.phaseSeed, int64(round), int64(id))))
	}
	m.SetParams(ph.global)
	cs := ph.cfg.Telemetry.StartClient(round, id)
	runLocalSteps(m, shard, ph.cfg, round, id, crng)
	ph.cfg.Telemetry.EndClient(cs)
	return shard.Len()
}

// fold is the server's one fold step, called for each finished client
// update in selection order: draw the injected dropout, report the
// update, weigh it and fold it into the round's aggregate. Folding in
// selection order pins both the server RNG stream and the float sum, so
// every executor produces the same trajectory.
func (ph *phase) fold(round, id int, params []*tensor.Tensor, samples int) {
	cfg := &ph.cfg
	if cfg.DropoutProb > 0 && ph.rng.Float64() < cfg.DropoutProb {
		ph.res.Dropped++
		cfg.Telemetry.DropUpdate()
		return // the client crashed; its update is lost
	}
	if cfg.UpdateHook != nil {
		cfg.UpdateHook(round, id, cloneAll(ph.global), cloneAll(params))
	}
	w := float64(samples)
	if cfg.WeightFn != nil {
		w = cfg.WeightFn(id, samples)
	}
	if w > 0 {
		ph.res.SamplesUsed += samples
		ph.agg.Fold(params, w)
	}
}

// runLocalSteps performs cfg.LocalSteps SGD/SGA updates on the client's
// local model. Each step's graph lives in the model's step arena and is
// recycled as soon as the optimizer has consumed its gradients.
//
//lint:hotpath
func runLocalSteps(model *nn.Model, client *data.Dataset, cfg PhaseConfig, round, clientID int, rng *rand.Rand) {
	opt := &optim.SGD{LR: cfg.LR, Dir: cfg.Dir, Health: cfg.Health}
	arena, params := model.Arena(), model.ParamTensors()
	gt := make([]*tensor.Tensor, len(params))
	for step := 0; step < cfg.LocalSteps; step++ {
		idx := sampleIndices(rng, client.Len(), cfg.BatchSize)
		x, labels := client.Batch(idx)
		loss := model.LossGrads(gt, x, labels)
		opt.Step(params, gt)
		arena.Reset() // the step's graph, gt's tensors included, is dead from here on
		if cfg.Counter != nil {
			cfg.Counter.AddBatch(len(idx))
		}
		cfg.Telemetry.LocalStep(clientID, len(idx))
		cfg.Telemetry.RecordLoss(float64(round*cfg.LocalSteps+step), loss)
		cfg.Health.RecordLoss(float64(round*cfg.LocalSteps+step), loss)
		if cfg.Hook != nil {
			cfg.Hook(StepContext{
				Round: round, Step: step, ClientID: clientID,
				Model: model, Client: client, BatchIdx: idx, Rng: rng,
			})
		}
	}
}

// healthRound feeds the aggregated global model's parameter L2 norm
// into the health monitor after one round and gates the phase on the
// divergence watchdog. Warm path: one blocked pass over the parameters
// per round, and only when a monitor is attached.
func healthRound(cfg PhaseConfig, round int, model *nn.Model) error {
	if cfg.Health == nil {
		return nil
	}
	sumsq, bad := 0.0, 0
	for _, p := range model.ParamTensors() {
		l2, nans, infs := tensor.NormStats(p)
		sumsq += l2 * l2
		bad += nans + infs
	}
	cfg.Health.RecordRound(float64(round), math.Sqrt(sumsq), bad)
	return cfg.Health.Check()
}

// selectClients samples a participation fraction of the eligible clients,
// always at least one.
func selectClients(eligible []int, participation float64, rng *rand.Rand) []int {
	if participation <= 0 || participation >= 1 {
		return eligible
	}
	k := int(participation * float64(len(eligible)))
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(eligible))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = eligible[perm[i]]
	}
	return out
}

// sampleIndices draws a batch of up to n indices without replacement.
func sampleIndices(rng *rand.Rand, total, n int) []int {
	idx := rng.Perm(total)
	if n < len(idx) {
		idx = idx[:n]
	}
	return idx
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func zerosLike(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = tensor.NewLike(t)
	}
	return out
}

// AverageParams returns the weighted average of parameter sets; weights
// must be positive and aligned with sets.
func AverageParams(sets [][]*tensor.Tensor, weights []float64) []*tensor.Tensor {
	if len(sets) == 0 || len(sets) != len(weights) {
		panic(fmt.Sprintf("fl: AverageParams got %d sets and %d weights", len(sets), len(weights)))
	}
	total := 0.0
	for _, w := range weights {
		if w <= 0 {
			panic("fl: non-positive weight")
		}
		total += w
	}
	out := zerosLike(sets[0])
	for s, set := range sets {
		for i, t := range set {
			out[i].AxpyInPlace(weights[s]/total, t)
		}
	}
	return out
}
