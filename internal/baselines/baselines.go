// Package baselines implements the five federated-unlearning approaches
// the paper compares QuickDrop against (§2.3, Table 1):
//
//   - Retrain-Or — the retraining oracle (from-scratch FL on D\D_f),
//   - SGA-Or — stochastic gradient ascent on the original forget data
//     followed by SGD recovery on the original retain data (Algorithm 1),
//   - FedEraser — calibrated replay of stored per-round client updates,
//   - FU-MP — class-discriminative channel pruning plus recovery, and
//   - S2U — update down-scaling of the forgetting client with up-scaled
//     remaining clients (client-level only).
//
// All methods share the Method interface so the experiment harness can
// drive them uniformly and regenerate the paper's comparison tables.
package baselines

import (
	"fmt"
	"math/rand"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
)

// Result reports the cost of serving one unlearning request.
type Result struct {
	Unlearn eval.Cost
	Recover eval.Cost
	Total   eval.Cost
}

func (r *Result) finish() {
	r.Total = r.Unlearn
	r.Total.Add(r.Recover)
}

// Capabilities mirrors the rows of the paper's Table 1.
type Capabilities struct {
	Name        string
	ClassLevel  bool
	ClientLevel bool
	// SampleLevel marks methods that can erase arbitrary samples — an
	// extension beyond the paper's Table 1 (the retraining/SGA family
	// supports it directly on original data).
	SampleLevel      bool
	Relearn          bool
	StorageEfficient bool
	// ComputeEfficiency is the qualitative rating from Table 1.
	ComputeEfficiency string
}

// Method is a federated unlearning approach.
type Method interface {
	Name() string
	Capabilities() Capabilities
	// Prepare runs the initial FL training, recording whatever state the
	// method needs for later unlearning.
	Prepare() error
	// Model returns the current global model.
	Model() *nn.Model
	// Unlearn serves a request (unlearning plus any recovery).
	Unlearn(req core.Request) (Result, error)
	// Relearn restores previously unlearned knowledge, or errors if the
	// method cannot (FU-MP's pruning is irreversible).
	Relearn(req core.Request) (Result, error)
}

// Config is shared by all baselines.
type Config struct {
	Arch nn.ConvNetConfig
	// Train configures initial FL training.
	Train core.PhaseParams
	// UnlearnPhase configures SGA/pruning/scaling stages.
	UnlearnPhase core.PhaseParams
	// RecoverPhase configures recovery training on the retain data.
	RecoverPhase core.PhaseParams
	// RelearnPhase configures relearning on the original forget data.
	RelearnPhase core.PhaseParams
	// RetrainRounds is how many rounds Retrain-Or needs to converge from
	// scratch on the retain data (paper: 30 of the original 200).
	RetrainRounds int
	// Observer, when set, is invoked with the stage name ("unlearn",
	// "recover", "relearn") after each pipeline stage, mirroring
	// core.Config.Observer.
	Observer func(stage string)
	// Telemetry, if set, instruments every phase the baseline runs with
	// the same pipeline core.Config.Telemetry uses. Nil is free.
	Telemetry *telemetry.Pipeline
	Seed      int64
}

// DefaultConfig mirrors core.DefaultConfig's phase structure on original
// data volumes.
func DefaultConfig(arch nn.ConvNetConfig) Config {
	return Config{
		Arch:          arch,
		Train:         core.PhaseParams{Rounds: 15, LocalSteps: 5, BatchSize: 16, LR: 0.1},
		UnlearnPhase:  core.PhaseParams{Rounds: 1, LocalSteps: 5, BatchSize: 16, LR: 0.02},
		RecoverPhase:  core.PhaseParams{Rounds: 2, LocalSteps: 5, BatchSize: 16, LR: 0.01},
		RelearnPhase:  core.PhaseParams{Rounds: 2, LocalSteps: 5, BatchSize: 16, LR: 0.05},
		RetrainRounds: 15,
		Seed:          1,
	}
}

// base carries the state shared by every baseline: the global model, the
// clients' registry of original datasets, and the forget tracker.
type base struct {
	cfg      Config
	clients  fl.ClientRegistry
	model    *nn.Model
	rng      *rand.Rand
	forget   *core.Tracker
	counter  optim.Counter
	prepared bool
}

func newBase(cfg Config, clients fl.ClientRegistry) (*base, error) {
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	if clients == nil || clients.NumClients() == 0 {
		return nil, fmt.Errorf("baselines: no clients")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &base{
		cfg:     cfg,
		clients: clients,
		model:   nn.NewConvNet(cfg.Arch, rng),
		rng:     rng,
		forget:  core.NewTracker(),
	}, nil
}

func (b *base) Model() *nn.Model { return b.model }

// numClients and shard are the registry access shorthands every method
// shares. The per-request forget/retain shards these methods derive stay
// []*data.Dataset: they are request-scale by construction (one class or
// one client's worth of data), not cohort-scale.
func (b *base) numClients() int           { return b.clients.NumClients() }
func (b *base) shard(i int) *data.Dataset { return b.clients.Shard(i) }

// phaseConfig converts core.PhaseParams into an fl.PhaseConfig named
// phase for telemetry. Like every QuickDrop phase, it trains the clients
// side by side on fl's worker pool (GOMAXPROCS workers), so the cost
// columns compare methods on the same executor.
func (b *base) phaseConfig(p core.PhaseParams, dir optim.Direction, phase string) fl.PhaseConfig {
	return fl.PhaseConfig{
		Rounds:        p.Rounds,
		LocalSteps:    p.LocalSteps,
		BatchSize:     p.BatchSize,
		LR:            p.LR,
		Dir:           dir,
		Participation: p.Participation,
		Factory:       core.WorkerModels(b.cfg.Arch),
		Counter:       &b.counter,
		Telemetry:     b.cfg.Telemetry,
		Phase:         phase,
	}
}

// trainInitial runs plain FedAvg training on the original data.
func (b *base) trainInitial(extra func(*fl.PhaseConfig)) error {
	if b.prepared {
		return fmt.Errorf("baselines: already prepared")
	}
	cfg := b.phaseConfig(b.cfg.Train, optim.Descend, "train")
	if extra != nil {
		extra(&cfg)
	}
	if _, err := fl.RunPhaseRegistry(b.model, b.clients, cfg, b.rng); err != nil {
		return err
	}
	b.prepared = true
	return nil
}

// forgetShards returns per-client original-data shards covered by the
// request: D_ic for class-level, D_i for client-level.
func (b *base) forgetShards(req core.Request) ([]*data.Dataset, error) {
	shards := make([]*data.Dataset, b.numClients())
	total := 0
	switch req.Kind {
	case core.ClassLevel:
		if req.Class < 0 || req.Class >= b.model.Classes {
			return nil, fmt.Errorf("baselines: class %d out of range", req.Class)
		}
		for i := range shards {
			c := b.shard(i)
			if c == nil || b.forget.ClientRemoved(i) {
				continue
			}
			shards[i] = c.OfClass(req.Class)
			total += shards[i].Len()
		}
	case core.ClientLevel:
		if req.Client < 0 || req.Client >= b.numClients() {
			return nil, fmt.Errorf("baselines: client %d out of range", req.Client)
		}
		shards[req.Client] = b.activeSubset(req.Client, b.shard(req.Client))
		total += shards[req.Client].Len()
	case core.SampleLevel:
		if req.Client < 0 || req.Client >= b.numClients() {
			return nil, fmt.Errorf("baselines: client %d out of range", req.Client)
		}
		client := b.shard(req.Client)
		removed := b.forget.RemovedSamples(req.Client)
		var idx []int
		for _, s := range req.Samples {
			if s < 0 || s >= client.Len() {
				return nil, fmt.Errorf("baselines: sample %d out of range for client %d", s, req.Client)
			}
			if !removed[s] {
				idx = append(idx, s)
			}
		}
		if len(idx) > 0 {
			shards[req.Client] = client.Subset(idx)
			total += len(idx)
		}
	default:
		return nil, fmt.Errorf("baselines: invalid request kind %v", req.Kind)
	}
	if total == 0 {
		return nil, fmt.Errorf("baselines: request %v matches no data", req)
	}
	return shards, nil
}

// activeSubset removes already-unlearned samples and classes from a
// client's dataset. Sample exclusion runs first because the tracker's
// indices refer to the original dataset ordering.
func (b *base) activeSubset(client int, ds *data.Dataset) *data.Dataset {
	if ds == nil {
		return nil
	}
	out := ds.WithoutIndices(b.forget.RemovedSamples(client))
	for _, c := range b.forget.RemovedClasses() {
		out = out.WithoutClass(c)
	}
	return out
}

// retainShards returns the per-client retain data D\D_f under the current
// forget state.
func (b *base) retainShards() []*data.Dataset {
	shards := make([]*data.Dataset, b.numClients())
	for i := range shards {
		c := b.shard(i)
		if c == nil || b.forget.ClientRemoved(i) {
			continue
		}
		shards[i] = b.activeSubset(i, c)
	}
	return shards
}

// runPhase executes one FedAvg phase over shards and returns its cost.
// The wall time comes from the telemetry phase timer inside RunPhase.
func (b *base) runPhase(shards []*data.Dataset, p core.PhaseParams, dir optim.Direction, phase string) (eval.Cost, error) {
	res, err := fl.RunPhase(b.model, shards, b.phaseConfig(p, dir, phase), b.rng)
	if err != nil {
		return eval.Cost{}, err
	}
	return eval.Cost{Rounds: res.Rounds, WallTime: res.WallTime, DataSize: shardTotal(shards)}, nil
}

// relearnOriginal is the shared relearning implementation: standard SGD
// training on the original forget data (paper §4.7: baselines relearn on
// original data).
func (b *base) relearnOriginal(req core.Request) (Result, error) {
	if !b.prepared {
		return Result{}, fmt.Errorf("baselines: Relearn before Prepare")
	}
	if !b.forget.IsRemoved(req) {
		return Result{}, fmt.Errorf("baselines: %v was not unlearned", req)
	}
	b.forget.Mark(req, false)
	shards, err := b.forgetShards(req)
	if err != nil {
		b.forget.Mark(req, true)
		return Result{}, err
	}
	var res Result
	res.Recover, err = b.runPhase(shards, b.cfg.RelearnPhase, optim.Descend, "relearn")
	if err != nil {
		return res, err
	}
	res.finish()
	b.observe("relearn")
	return res, nil
}

func (b *base) observe(stage string) {
	if b.cfg.Observer != nil {
		b.cfg.Observer(stage)
	}
}

func (b *base) checkUnlearn(req core.Request, caps Capabilities) error {
	if !b.prepared {
		return fmt.Errorf("baselines: Unlearn before Prepare")
	}
	if req.Kind == core.ClassLevel && !caps.ClassLevel {
		return fmt.Errorf("baselines: %s does not support class-level unlearning", caps.Name)
	}
	if req.Kind == core.ClientLevel && !caps.ClientLevel {
		return fmt.Errorf("baselines: %s does not support client-level unlearning", caps.Name)
	}
	if req.Kind == core.SampleLevel && !caps.SampleLevel {
		return fmt.Errorf("baselines: %s does not support sample-level unlearning", caps.Name)
	}
	if b.forget.IsRemoved(req) {
		return fmt.Errorf("baselines: %v already unlearned", req)
	}
	return nil
}

func shardTotal(shards []*data.Dataset) int {
	n := 0
	for _, s := range shards {
		if s != nil {
			n += s.Len()
		}
	}
	return n
}
