// Package fl implements the federated-averaging substrate that QuickDrop
// and all baselines run on: clients hold private datasets, a logical
// parameter server orchestrates rounds, and every phase of the paper's
// Algorithm 1 — training, unlearning (gradient ascent), recovery,
// relearning — is a FedAvg phase differing only in data, direction and
// round count.
package fl

import (
	"fmt"
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
	// PhaseStep is Round·LocalSteps + Step, the step's x-coordinate on
	// the phase's loss and health series.
	PhaseStep int
	// Health is the client's health.Monitor Fork of the phase's monitor
	// (nil when none is attached): hooks record through it, and the
	// server joins it into the monitor in fold order.
	Health *health.Monitor
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
	// Factory, if set, lets the phase run its clients on a bounded pool
	// of workers, each owning one private model built by Factory and
	// reused across every client it serves. Factory's initial weights
	// never matter (the worker sets the round's global parameters before
	// each client), but building a model must not draw from a stream the
	// caller's trajectory depends on. Nil, or a pool that would have one
	// worker, trains the clients one after another on the caller's model.
	// The executor never affects numerics: updates fold in selection
	// order regardless of arrival order.
	Factory ModelFactory
	// Workers bounds the pool Factory enables; 0 selects GOMAXPROCS and
	// 1 trains the clients in turn. The pool never starts more workers
	// than a round can select.
	Workers int
	// Hook, if set, runs after every local step, on the goroutine that
	// trains the client, with that client's model and RNG. On the pool
	// (Factory set) the hooks of a round's clients run concurrently: Hook
	// must be safe for concurrent calls with distinct ClientIDs. Calls
	// for one client never overlap, and every hook of a round returns
	// before the next round starts.
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
	// Counter, if set, accumulates gradient-evaluation costs. Each client
	// counts its own local steps; the server adds the count in fold
	// order, dropped clients included, so no worker writes it.
	Counter *optim.Counter
	// Telemetry, if set, records the phase, round and local-step
	// metrics of this phase. A nil pipeline is free: every record call
	// is a nil-receiver no-op and the hot path reads no clock.
	Telemetry *telemetry.Pipeline
	// Health, if set, watches the phase's numerics: per-step losses feed
	// the NaN tripwire and spike detector, the optimizer samples
	// per-layer gradient norms, and each aggregated round is gated on
	// the divergence watchdog — a tripped watchdog aborts the phase with
	// an error unwrapping to health.ErrUnhealthy. Each client records on
	// its own Fork (sampled per client) that the server joins in fold
	// order, so the verdict is the same on every executor. Observation
	// is read-only: trajectories are bitwise identical with or without a
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
	// ClientTime sums every trained client's local-step wall time, hook
	// included, dropped clients too. Sequentially it is WallTime minus the
	// server's share; on the pool clients overlap, and it can exceed
	// WallTime.
	ClientTime time.Duration
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
// model in place. It trains the selected clients one after another on
// model itself, or on cfg.Factory's worker pool when that is set and
// the pool would have more than one worker; both give the same floats. With cfg.SampleK == 0 it replicates the historical
// slice-based RunPhase exactly — same RNG consumption, same fold order,
// same floats — over whatever the registry materializes. With SampleK >
// 0 it runs in sampled mode: per-round participant sets are drawn from
// the registry without enumerating the cohort, per-client RNG streams
// are derived from (phase seed, round, client ID), and per-round cost
// is O(K·shard + model) regardless of NumClients.
func RunPhaseRegistry(model *nn.Model, reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	if cfg.Factory != nil && poolSize(reg, cfg) > 1 {
		return runPooled(nil, nil, model, reg, cfg, rng)
	}
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
// starts records the phase time, and every exit inside a round records
// the round.
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
		rs := cfg.Telemetry.StartRound()
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
		cfg.Telemetry.EndRound(rs)
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
		u := ph.train(ph.model, round, id)
		u.params = ph.model.ParamTensors()
		ph.fold(round, u)
	}
	return nil
}

// train runs client id's local steps for round on m, starting from the
// round's global snapshot, and reports them as an update whose params
// the executor fills in.
func (ph *phase) train(m *nn.Model, round, id int) clientUpdate {
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
	// The client records its health observations on a fork, which the
	// server joins in fold order whatever the schedule.
	cfg := ph.cfg
	cfg.Health = ph.cfg.Health.Fork()
	sw := telemetry.StartTimer()
	u := clientUpdate{clientID: id, samples: shard.Len(), health: cfg.Health}
	u.cost = runLocalSteps(m, shard, cfg, round, id, crng)
	u.elapsed = sw.Elapsed()
	return u
}

// fold is the server's one fold step, called for each finished client
// update in selection order: charge the client's cost, join its health
// observations, draw the injected dropout, report the update, weigh it
// and fold it into the round's aggregate. Folding in selection order
// pins the server RNG stream, the float sum and the health verdict, so
// every executor produces the same trajectory.
func (ph *phase) fold(round int, u clientUpdate) {
	cfg := &ph.cfg
	// The client spent its compute, and observed its steps, whether or
	// not its update arrives.
	if cfg.Counter != nil {
		cfg.Counter.Add(u.cost)
	}
	cfg.Health.Join(u.health)
	ph.res.ClientTime += u.elapsed
	if cfg.DropoutProb > 0 && ph.rng.Float64() < cfg.DropoutProb {
		ph.res.Dropped++
		return // the client crashed; its update is lost
	}
	if cfg.UpdateHook != nil {
		cfg.UpdateHook(round, u.clientID, cloneAll(ph.global), cloneAll(u.params))
	}
	w := float64(u.samples)
	if cfg.WeightFn != nil {
		w = cfg.WeightFn(u.clientID, u.samples)
	}
	if w > 0 {
		ph.res.SamplesUsed += u.samples
		ph.agg.Fold(u.params, w)
	}
}

// runLocalSteps performs cfg.LocalSteps SGD/SGA updates on the client's
// local model and returns their gradient-evaluation cost. Each step's
// input batch and graph live in the model's step arena and are recycled
// as soon as the optimizer has consumed its gradients.
func runLocalSteps(model *nn.Model, client *data.Dataset, cfg PhaseConfig, round, clientID int, rng *rand.Rand) (cost optim.Counter) {
	opt := &optim.SGD{LR: cfg.LR, Dir: cfg.Dir, Health: cfg.Health}
	arena, params := model.Arena(), model.ParamTensors()
	gt := make([]*tensor.Tensor, len(params))
	labels := make([]int, 0, cfg.BatchSize)
	for step := 0; step < cfg.LocalSteps; step++ {
		idx := sampleIndices(rng, client.Len(), cfg.BatchSize)
		x, y := client.BatchInto(arena.Tensor(), labels, idx)
		loss := model.LossGrads(gt, x, y)
		opt.Step(params, gt)
		arena.Reset() // the step's input and graph, gt's tensors included, are dead from here on
		cost.AddBatch(len(idx))
		cfg.Telemetry.LocalStep(clientID, len(idx))
		at := round*cfg.LocalSteps + step
		cfg.Health.RecordLoss(float64(at), loss)
		if cfg.Hook != nil {
			cfg.Hook(StepContext{
				Round: round, Step: step, ClientID: clientID,
				Model: model, Client: client, BatchIdx: idx, Rng: rng,
				PhaseStep: at, Health: cfg.Health,
			})
		}
	}
	return cost
}

// healthRound feeds the aggregated global model's non-finite parameter
// count into the health monitor after one round and gates the phase on
// the divergence watchdog. Warm path: one blocked pass over the
// parameters per round, and only when a monitor is attached.
func healthRound(cfg PhaseConfig, round int, model *nn.Model) error {
	if cfg.Health == nil {
		return nil
	}
	bad := 0
	for _, p := range model.ParamTensors() {
		_, nans, infs := tensor.NormStats(p)
		bad += nans + infs
	}
	cfg.Health.RecordRound(float64(round), bad)
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
