// Package core implements the end-to-end QuickDrop workflow (paper Fig. 1):
//
//  1. federated training with in-situ synthetic data generation,
//  2. augmentation of the synthetic sets with a few original samples and
//     optional fine-tuning,
//  3. unlearning via stochastic gradient ascent on the synthetic forget set,
//  4. recovery via SGD on the remaining synthetic data, and
//  5. relearning of previously erased knowledge from the synthetic data.
//
// It supports class-level and client-level requests, sequential request
// streams, and full cost accounting.
package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// RequestKind distinguishes the two unlearning granularities QuickDrop
// supports (paper §2.2; sample-level is future work, §5.1).
type RequestKind int

const (
	// ClassLevel erases a class across all clients holding it.
	ClassLevel RequestKind = iota + 1
	// ClientLevel erases one client's entire contribution.
	ClientLevel
	// SampleLevel erases specific samples of one client. The paper leaves
	// this as future work (§5.1) and sketches the approach implemented
	// here: distill per-class *subsets* independently (distill.Config
	// .Groups > 1) and unlearn at subset granularity.
	SampleLevel
)

// String implements fmt.Stringer.
func (k RequestKind) String() string {
	switch k {
	case ClassLevel:
		return "class-level"
	case ClientLevel:
		return "client-level"
	case SampleLevel:
		return "sample-level"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// Request identifies what to unlearn (or relearn).
type Request struct {
	Kind RequestKind
	// Class is the target class for ClassLevel requests.
	Class int
	// Client is the target client index for ClientLevel and SampleLevel
	// requests.
	Client int
	// Samples are indices into the target client's local dataset for
	// SampleLevel requests.
	Samples []int
}

// String implements fmt.Stringer.
func (r Request) String() string {
	switch r.Kind {
	case ClassLevel:
		return fmt.Sprintf("unlearn class %d", r.Class)
	case ClientLevel:
		return fmt.Sprintf("unlearn client %d", r.Client)
	case SampleLevel:
		return fmt.Sprintf("unlearn %d samples of client %d", len(r.Samples), r.Client)
	default:
		return "invalid request"
	}
}

// PhaseParams configures one FedAvg phase of the pipeline.
type PhaseParams struct {
	Rounds        int
	LocalSteps    int
	BatchSize     int
	LR            float64
	Participation float64
	// SampleK, when positive, runs the phase in the registry's sampled
	// mode: each round draws K participants instead of enumerating the
	// cohort (mutually exclusive with Participation; see
	// fl.PhaseConfig.SampleK). Only the training phase consults it —
	// unlearning and recovery operate on the synthetic shards, which
	// are as small as the cohort of distilled clients.
	SampleK int
}

// Config assembles every knob of the QuickDrop system. Defaults follow the
// paper's hyperparameters (§4.1) scaled to this reproduction's substrate.
type Config struct {
	Arch nn.ConvNetConfig
	// Train configures initial FL training (paper: K=200, T=50, b=256,
	// η=0.01 — scaled down here).
	Train PhaseParams
	// Unlearn configures SGA rounds (paper: 1 round, η=0.02).
	Unlearn PhaseParams
	// Recover configures recovery rounds (paper: 2 rounds, η=0.01).
	Recover PhaseParams
	// Relearn configures relearning rounds on the synthetic forget set.
	Relearn PhaseParams
	// Distill holds the gradient-matching hyperparameters.
	Distill distill.Config
	// DistillDistance overrides the gradient-matching objective
	// (default distill.MatchDistance; distill.L2Distance for ablations).
	DistillDistance distill.DistanceFunc
	// Augment mixes 1:1 original samples into recovery sets (§3.3.1).
	Augment bool
	// FineTune, when non-nil, refines synthetic data after training
	// (§3.3.2); its Arch/Match fields are filled from this config if zero.
	FineTune *distill.FineTuneConfig
	// Observer, when set, is invoked with the stage name ("unlearn",
	// "recover", "relearn") after each pipeline stage completes, so
	// harnesses can evaluate the model stage-by-stage as the paper's
	// tables do.
	Observer func(stage string)
	// Telemetry, if set, instruments every phase the system runs (phase,
	// round and step metrics, unlearning-request counts). Nil disables observability at
	// zero cost and changes no numerics either way.
	Telemetry *telemetry.Pipeline
	// Health, if set, watches every phase for numeric divergence (NaN/Inf
	// parameters, exploding gradients, loss spikes). When the watchdog
	// trips, the running phase aborts with an error unwrapping to
	// health.ErrUnhealthy; like Telemetry, a nil monitor costs nothing
	// and the numerics are bitwise identical either way.
	Health *health.Monitor
	// PoisonPhase is a fault-injection hook for exercising the health
	// watchdog end to end: naming a phase ("unlearn") plants a NaN in the
	// model's first parameter immediately before that phase runs. Never
	// set in production; see scripts/health_smoke.sh.
	PoisonPhase string
	// Workers is the number of clients a phase trains side by side on
	// fl's worker pool, every phase (Train, unlearning, recovery,
	// relearning) alike: 0 means GOMAXPROCS and 1 trains them in turn.
	// The pool never starts more workers than a round can select, and
	// the numerics are bitwise identical at every value. serve.New
	// resolves 0 to max(1, GOMAXPROCS−1), so one core stays with its
	// HTTP readers.
	Workers int
	Seed    int64
}

// DefaultConfig returns a configuration for the given architecture that
// keeps the paper's phase structure (1 unlearn round, 2 recovery rounds)
// with CPU-friendly training volume.
func DefaultConfig(arch nn.ConvNetConfig) Config {
	return Config{
		Arch:    arch,
		Train:   PhaseParams{Rounds: 15, LocalSteps: 5, BatchSize: 16, LR: 0.1},
		Unlearn: PhaseParams{Rounds: 1, LocalSteps: 5, BatchSize: 16, LR: 0.02},
		Recover: PhaseParams{Rounds: 2, LocalSteps: 5, BatchSize: 16, LR: 0.01},
		Relearn: PhaseParams{Rounds: 2, LocalSteps: 5, BatchSize: 16, LR: 0.01},
		Distill: distill.DefaultConfig(),
		Augment: true,
		Seed:    1,
	}
}

// Report summarizes one unlearning (or relearning) request execution.
type Report struct {
	Request Request
	// Unlearn is the cost of the SGA stage (zero for relearning).
	Unlearn eval.Cost
	// Recover is the cost of the recovery (or relearning) stage.
	Recover eval.Cost
	// Total is the combined cost.
	Total eval.Cost
}

// System is a QuickDrop deployment: a global model, the clients' original
// datasets behind a registry, and — after Train — their synthetic
// counterparts.
type System struct {
	Cfg     Config
	Model   *nn.Model
	Clients fl.ClientRegistry
	// Matcher owns the per-client synthetic sets after Train.
	Matcher *distill.Matcher
	// TrainResult records the cost of initial training.
	TrainResult fl.PhaseResult
	// Counter accumulates gradient evaluations across all phases.
	Counter optim.Counter

	rng *rand.Rand
	// busy serializes pipeline operations: a System owns one global
	// model and one RNG stream, so a second concurrent Train / Unlearn
	// / Recover / Relearn is rejected with ErrBusy instead of silently
	// corrupting both (see batch.go).
	busy atomic.Bool
	// forget tracks the currently-unlearned classes and clients so that
	// sequential requests exclude already-unlearned knowledge from
	// recovery, and relearning can restore it.
	forget *Tracker
	// removedGroups tracks, per client, the sub-class distillation groups
	// whose synthetic data has been unlearned (sample-level requests).
	removedGroups map[int]map[distill.GroupKey]bool
	trained       bool
}

// NewSystem validates the configuration and assembles a system.
func NewSystem(cfg Config, clients fl.ClientRegistry) (*System, error) {
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Distill.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: workers %d must be non-negative", cfg.Workers)
	}
	if clients == nil || clients.NumClients() == 0 {
		return nil, fmt.Errorf("core: no clients")
	}
	nonEmpty := 0
	for i := 0; i < clients.NumClients(); i++ {
		if clients.ShardLen(i) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return nil, fmt.Errorf("core: all clients are empty")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &System{
		Cfg:           cfg,
		Model:         nn.NewConvNet(cfg.Arch, rng),
		Clients:       clients,
		rng:           rng,
		forget:        NewTracker(),
		removedGroups: make(map[int]map[distill.GroupKey]bool),
	}, nil
}

// Train runs steps 1 and 2 of the workflow: FL training with in-situ
// distillation, then augmentation and optional fine-tuning of the
// synthetic sets. As in the paper, each client distills on its own
// device: like every phase, training runs the clients side by side on
// fl's worker pool (Config.Workers), bit-identical to training them in
// turn.
func (s *System) Train() (fl.PhaseResult, error) {
	if err := s.acquire("Train"); err != nil {
		return fl.PhaseResult{}, err
	}
	defer s.release()
	if s.trained {
		return fl.PhaseResult{}, fmt.Errorf("core: system already trained")
	}
	s.Matcher = distill.NewMatcher(s.Cfg.Distill, s.Clients, s.rng)
	s.Matcher.Telemetry = s.Cfg.Telemetry
	if s.Cfg.DistillDistance != nil {
		s.Matcher.Distance = s.Cfg.DistillDistance
	}
	cfg := s.phaseConfig(s.Cfg.Train, optim.Descend, "train")
	cfg.SampleK = s.Cfg.Train.SampleK
	cfg.Hook = s.Matcher.Hook()
	res, err := fl.RunPhaseRegistry(s.Model, s.Clients, cfg, s.rng)
	if err != nil {
		return res, err
	}
	s.TrainResult = res
	if s.Cfg.FineTune != nil {
		if err := s.fineTuneAll(); err != nil {
			return res, err
		}
	}
	s.trained = true
	return res, nil
}

// phaseConfig is the fl.PhaseConfig of one of the system's phases: p's
// schedule in direction dir, on the worker pool, charged to s.Counter
// and observed by the system's telemetry and health monitor.
func (s *System) phaseConfig(p PhaseParams, dir optim.Direction, name string) fl.PhaseConfig {
	return fl.PhaseConfig{
		Rounds:        p.Rounds,
		LocalSteps:    p.LocalSteps,
		BatchSize:     p.BatchSize,
		LR:            p.LR,
		Dir:           dir,
		Participation: p.Participation,
		Factory:       WorkerModels(s.Cfg.Arch),
		Workers:       s.Cfg.Workers,
		Counter:       &s.Counter,
		Telemetry:     s.Cfg.Telemetry,
		Health:        s.Cfg.Health,
		Phase:         name,
	}
}

// WorkerModels is the fl.ModelFactory of arch's pool workers, for the
// system's phases and the baselines' alike. A worker's weights are
// overwritten before every client, so the initialisation draws from a
// fixed private source: drawing from the caller's RNG would shift every
// later trajectory.
func WorkerModels(arch nn.ConvNetConfig) fl.ModelFactory {
	return func() *nn.Model { return nn.NewConvNet(arch, rand.New(rand.NewSource(0))) }
}

// fineTuneAll refines every client's synthetic set in ascending client
// ID, the order that fixes the draws from s.rng.
func (s *System) fineTuneAll() error {
	ft := *s.Cfg.FineTune
	if ft.Arch.InputH == 0 {
		ft.Arch = s.Cfg.Arch
	}
	if ft.Match.Scale == 0 {
		ft.Match = s.Cfg.Distill
	}
	for id := 0; id < s.Clients.NumClients(); id++ {
		syn := s.Matcher.Sets[id]
		if syn == nil {
			continue
		}
		counter, err := distill.FineTune(syn, s.Clients.Shard(id), ft, s.rng)
		if err != nil {
			return fmt.Errorf("core: fine-tune client %d: %w", id, err)
		}
		s.Counter.Add(counter)
	}
	return nil
}

// Synthetic returns client i's synthetic dataset (nil before Train or for
// empty clients).
func (s *System) Synthetic(i int) *data.Dataset {
	if s.Matcher == nil {
		return nil
	}
	return s.Matcher.Sets[i]
}

// forgetShards returns, per client, the synthetic data covered by the
// request: S_ic for class-level, S_i for client-level (paper §3.1).
func (s *System) forgetShards(req Request) ([]*data.Dataset, error) {
	shards := make([]*data.Dataset, s.Clients.NumClients())
	total := 0
	switch req.Kind {
	case ClassLevel:
		if req.Class < 0 || req.Class >= s.Model.Classes {
			return nil, fmt.Errorf("core: class %d out of range", req.Class)
		}
		for i := range shards {
			if syn := s.Synthetic(i); syn != nil && !s.forget.ClientRemoved(i) {
				shards[i] = syn.OfClass(req.Class)
				total += shards[i].Len()
			}
		}
	case ClientLevel:
		if req.Client < 0 || req.Client >= s.Clients.NumClients() {
			return nil, fmt.Errorf("core: client %d out of range", req.Client)
		}
		if syn := s.Synthetic(req.Client); syn != nil {
			shards[req.Client] = s.activeSubset(req.Client, syn)
			total += shards[req.Client].Len()
		}
	case SampleLevel:
		groups, _, err := s.resolveSampleGroups(req)
		if err != nil {
			return nil, err
		}
		syn := s.Synthetic(req.Client)
		grouping := s.Matcher.Groupings[req.Client]
		var idx []int
		for _, key := range groups {
			idx = append(idx, grouping.Syn[key]...)
		}
		shards[req.Client] = syn.Subset(idx)
		total += len(idx)
	default:
		return nil, fmt.Errorf("core: invalid request kind %v", req.Kind)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: request %v matches no synthetic data", req)
	}
	return shards, nil
}

// activeSubset filters a synthetic set down to data that has not been
// unlearned: it drops removed classes and the synthetic samples of
// removed sub-class groups.
func (s *System) activeSubset(client int, syn *data.Dataset) *data.Dataset {
	groupExcluded := make(map[int]bool)
	if grouping := s.Matcher.Groupings[client]; grouping != nil {
		for key := range s.removedGroups[client] {
			for _, i := range grouping.Syn[key] {
				groupExcluded[i] = true
			}
		}
	}
	if !s.forget.AnyRemovedClasses() && len(groupExcluded) == 0 {
		return syn
	}
	var idx []int
	for i, y := range syn.Y {
		if !s.forget.ClassRemoved(y) && !groupExcluded[i] {
			idx = append(idx, i)
		}
	}
	return syn.Subset(idx)
}

// resolveSampleGroups maps a sample-level request onto the distillation
// groups covering the requested samples. Because synthetic data exists at
// subset granularity, unlearning expands to every sample of the covered
// groups; the expanded sample list is returned for forget-state tracking.
func (s *System) resolveSampleGroups(req Request) ([]distill.GroupKey, []int, error) {
	if req.Client < 0 || req.Client >= s.Clients.NumClients() {
		return nil, nil, fmt.Errorf("core: client %d out of range", req.Client)
	}
	if len(req.Samples) == 0 {
		return nil, nil, fmt.Errorf("core: sample-level request with no samples")
	}
	grouping := s.Matcher.Groupings[req.Client]
	if grouping == nil {
		return nil, nil, fmt.Errorf("core: client %d has no synthetic data", req.Client)
	}
	client := s.Clients.Shard(req.Client)
	seen := make(map[distill.GroupKey]bool)
	var groups []distill.GroupKey
	for _, sample := range req.Samples {
		if sample < 0 || sample >= client.Len() {
			return nil, nil, fmt.Errorf("core: sample %d out of range for client %d", sample, req.Client)
		}
		key, ok := grouping.GroupOf(sample)
		if !ok {
			return nil, nil, fmt.Errorf("core: sample %d of client %d belongs to no distillation group", sample, req.Client)
		}
		if !seen[key] && !s.removedGroups[req.Client][key] {
			seen[key] = true
			groups = append(groups, key)
		}
	}
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("core: %v covers only already-unlearned groups", req)
	}
	var expanded []int
	for _, key := range groups {
		expanded = append(expanded, grouping.Real[key]...)
	}
	return groups, expanded, nil
}

// markSampleGroups records (or clears) the removal of the groups covering
// a sample-level request and the corresponding real samples.
func (s *System) markSampleGroups(req Request, removed bool) error {
	groups, expanded, err := s.resolveSampleGroupsForMark(req, removed)
	if err != nil {
		return err
	}
	set := s.removedGroups[req.Client]
	if set == nil {
		set = make(map[distill.GroupKey]bool)
		s.removedGroups[req.Client] = set
	}
	for _, key := range groups {
		if removed {
			set[key] = true
		} else {
			delete(set, key)
		}
	}
	s.forget.Mark(Request{Kind: SampleLevel, Client: req.Client, Samples: expanded}, removed)
	return nil
}

// resolveSampleGroupsForMark resolves groups for marking; when clearing a
// removal the already-removed filter must be inverted.
func (s *System) resolveSampleGroupsForMark(req Request, removed bool) ([]distill.GroupKey, []int, error) {
	if removed {
		return s.resolveSampleGroups(req)
	}
	grouping := s.Matcher.Groupings[req.Client]
	if grouping == nil {
		return nil, nil, fmt.Errorf("core: client %d has no synthetic data", req.Client)
	}
	seen := make(map[distill.GroupKey]bool)
	var groups []distill.GroupKey
	var expanded []int
	for _, sample := range req.Samples {
		key, ok := grouping.GroupOf(sample)
		if !ok {
			continue
		}
		if !seen[key] && s.removedGroups[req.Client][key] {
			seen[key] = true
			groups = append(groups, key)
			expanded = append(expanded, grouping.Real[key]...)
		}
	}
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("core: %v covers no unlearned groups", req)
	}
	return groups, expanded, nil
}

// retainShards returns, per client, the recovery data: the synthetic set
// minus all currently-forgotten knowledge, augmented 1:1 with original
// samples when configured (§3.3.1).
func (s *System) retainShards() []*data.Dataset {
	shards := make([]*data.Dataset, s.Clients.NumClients())
	for i := range shards {
		if s.forget.ClientRemoved(i) {
			continue
		}
		syn := s.Synthetic(i)
		if syn == nil {
			continue
		}
		retain := s.activeSubset(i, syn)
		if retain.Len() == 0 {
			continue
		}
		if s.Cfg.Augment {
			// Original samples of removed data must not leak back in.
			// Sample exclusion must come first: the tracker's indices
			// refer to the client's original dataset ordering.
			original := s.Clients.Shard(i).WithoutIndices(s.forget.RemovedSamples(i))
			for _, c := range s.forget.RemovedClasses() {
				original = original.WithoutClass(c)
			}
			retain = distill.Augment(retain, original, s.rng)
		}
		shards[i] = retain
	}
	return shards
}

// Unlearn executes steps 3 and 4 for a request: SGA rounds on the
// synthetic forget set followed by SGD recovery rounds on the remaining
// synthetic data. It is the single-request form of UnlearnBatch and is
// bit-for-bit identical to a batch of one.
func (s *System) Unlearn(req Request) (Report, error) {
	if err := s.acquire("Unlearn"); err != nil {
		return Report{}, err
	}
	defer s.release()
	br, err := s.unlearnBatchLocked([]Request{req})
	// Phase wall time comes from the telemetry phase timer inside
	// RunPhase, so eval.Cost is populated from the same readings as the
	// phase_seconds histogram.
	rep := Report{Request: req, Unlearn: br.Unlearn, Recover: br.Recover, Total: br.Total}
	if err != nil {
		if len(br.Rejected) == 1 {
			// Surface the resolution error directly, not the batch wrapper.
			return rep, br.Rejected[0].Err
		}
		return rep, err
	}
	return rep, nil
}

func (s *System) observe(stage string) {
	if s.Cfg.Observer != nil {
		s.Cfg.Observer(stage)
	}
}

// Recover runs additional recovery rounds on the current retain data,
// beyond those already executed by Unlearn. The paper (§4.2.1) uses this
// to show that two recovery rounds suffice; harnesses use it to trace
// accuracy round by round (Fig. 2).
func (s *System) Recover(rounds int) (eval.Cost, error) {
	if err := s.acquire("Recover"); err != nil {
		return eval.Cost{}, err
	}
	defer s.release()
	if !s.trained {
		return eval.Cost{}, fmt.Errorf("core: Recover before Train")
	}
	if rounds < 1 {
		return eval.Cost{}, fmt.Errorf("core: Recover needs rounds ≥ 1")
	}
	retain := s.retainShards()
	cfg := s.phaseConfig(s.Cfg.Recover, optim.Descend, "recover")
	cfg.Rounds = rounds
	res, err := fl.RunPhase(s.Model, retain, cfg, s.rng)
	if err != nil {
		return eval.Cost{}, err
	}
	return eval.Cost{Rounds: res.Rounds, WallTime: res.WallTime, DataSize: shardSize(retain)}, nil
}

// Relearn executes step 5: SGD on the synthetic data of a previously
// unlearned request, restoring the erased knowledge.
func (s *System) Relearn(req Request) (Report, error) {
	if err := s.acquire("Relearn"); err != nil {
		return Report{}, err
	}
	defer s.release()
	if !s.trained {
		return Report{}, fmt.Errorf("core: Relearn before Train")
	}
	if !s.forget.IsRemoved(req) {
		return Report{}, fmt.Errorf("core: %v was not unlearned", req)
	}
	// Clear the removed mark first so forgetShards sees the data again.
	if err := s.markRemoved(req, false); err != nil {
		return Report{}, err
	}
	forget, err := s.forgetShards(req)
	if err != nil {
		if mErr := s.markRemoved(req, true); mErr != nil {
			return Report{}, fmt.Errorf("core: %w (and could not restore forget state: %v)", err, mErr)
		}
		return Report{}, err
	}
	rep := Report{Request: req}
	res, err := fl.RunPhase(s.Model, forget, s.phaseConfig(s.Cfg.Relearn, optim.Descend, "relearn"), s.rng)
	if err != nil {
		return rep, fmt.Errorf("core: relearning phase: %w", err)
	}
	rep.Recover = eval.Cost{Rounds: res.Rounds, WallTime: res.WallTime, DataSize: shardSize(forget)}
	rep.Total = rep.Recover
	s.observe("relearn")
	return rep, nil
}

func (s *System) checkNotRemoved(req Request) error {
	if s.forget.IsRemoved(req) {
		return fmt.Errorf("core: %v already unlearned", req)
	}
	return nil
}

// markRemoved records a request's forget state, expanding sample-level
// requests to their covering distillation groups.
func (s *System) markRemoved(req Request, removed bool) error {
	if req.Kind == SampleLevel {
		return s.markSampleGroups(req, removed)
	}
	s.forget.Mark(req, removed)
	return nil
}

// RemovedClasses returns the classes currently unlearned.
func (s *System) RemovedClasses() []int { return s.forget.RemovedClasses() }

// RemovedSampleSet returns a copy of the client's currently-unlearned
// local sample indices (after group expansion).
func (s *System) RemovedSampleSet(client int) map[int]bool {
	out := make(map[int]bool)
	for k, v := range s.forget.RemovedSamples(client) {
		if v {
			out[k] = true
		}
	}
	return out
}

func shardSize(shards []*data.Dataset) int {
	n := 0
	for _, sh := range shards {
		if sh != nil {
			n += sh.Len()
		}
	}
	return n
}
