// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on this reproduction's substrate. Each artifact has a
// Run function returning structured results plus a printer that emits
// paper-style rows; cmd/experiments and the repository's benchmarks drive
// them. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"math/rand"

	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/telemetry"
)

// Scale groups the substrate-size knobs so every experiment can run in
// seconds (Quick), minutes (Standard), or closer to paper volume (Large).
// The paper trained 200 rounds × 50 steps on 32×32 images with a
// 128-filter ConvNet on a GPU; the presets keep the algorithmic structure
// (1 unlearn round, 2 recovery rounds, s=100 semantics) while shrinking
// the substrate (see DESIGN.md, substitutions).
type Scale struct {
	Name       string
	ImageSize  int
	PerClass   int // training samples per class
	Width      int // ConvNet filters per block
	Depth      int // ConvNet blocks
	TrainRound int
	LocalSteps int
	BatchSize  int
	Retrain    int // Retrain-Or rounds
	Seed       int64
	// Repeats averages each method-comparison experiment over this many
	// independent seeds (the paper reports 5-run averages); 0 or 1 runs
	// once.
	Repeats int
	// Telemetry, if set, instruments every system and baseline the
	// experiments construct. Nil disables observability at zero cost.
	Telemetry *telemetry.Pipeline
	// Events, if set, receives one JSONL cost event per method row.
	Events *telemetry.EventLog
}

// EffectiveRepeats returns the run count (≥ 1).
func (s Scale) EffectiveRepeats() int {
	if s.Repeats < 1 {
		return 1
	}
	return s.Repeats
}

// Quick finishes each experiment in seconds; the default for benchmarks.
func Quick() Scale {
	return Scale{Name: "quick", ImageSize: 8, PerClass: 20, Width: 8, Depth: 2,
		TrainRound: 18, LocalSteps: 5, BatchSize: 16, Retrain: 18, Seed: 42}
}

// Standard takes minutes per experiment and tightens the accuracy gaps.
func Standard() Scale {
	return Scale{Name: "standard", ImageSize: 12, PerClass: 30, Width: 16, Depth: 2,
		TrainRound: 20, LocalSteps: 8, BatchSize: 24, Retrain: 20, Seed: 42}
}

// Large approaches paper volume; expect long CPU runs.
func Large() Scale {
	return Scale{Name: "large", ImageSize: 16, PerClass: 80, Width: 32, Depth: 3,
		TrainRound: 40, LocalSteps: 10, BatchSize: 32, Retrain: 40, Seed: 42}
}

// ScaleByName resolves a preset.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "standard":
		return Standard(), nil
	case "large":
		return Large(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (quick|standard|large)", name)
	}
}

// Setup is the shared experimental environment: a generated dataset
// partitioned across clients, plus the architecture matched to it.
type Setup struct {
	Dataset string
	// Clients is the materialized partition; nil for a lazy setup.
	Clients []*data.Dataset
	// Cohort is the registry the FL stack and all method constructors
	// consume: a data.Cohort sharing Clients' shard pointers (so behavior
	// is identical to passing the slice directly), or a data.LazyCohort.
	Cohort fl.ClientRegistry
	Test   *data.Dataset
	Arch   nn.ConvNetConfig
	Scale  Scale
	// Alpha records the Dirichlet concentration (0 = IID).
	Alpha float64
}

// NewSetup generates the dataset and partitions it. alpha ≤ 0 selects IID
// partitioning; otherwise Dirichlet(alpha) non-IID (paper default 0.1).
func NewSetup(dataset string, nClients int, alpha float64, sc Scale) (*Setup, error) {
	s, _, train, err := generate(dataset, alpha, sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	if alpha <= 0 {
		s.Clients = data.PartitionIID(train, nClients, rng)
	} else {
		s.Clients = data.PartitionDirichlet(train, nClients, alpha, rng)
	}
	s.Cohort = data.NewCohort(s.Clients)
	return s, nil
}

// NewLazySetup is NewSetup for registry-scale cohorts: nothing is
// partitioned up front. Cohort is a data.LazyCohort that derives any
// client's perClient-sample shard on demand from (seed, client ID), so
// nClients can be a million; Clients is nil.
func NewLazySetup(dataset string, nClients, perClient int, alpha float64, sc Scale) (*Setup, error) {
	s, spec, _, err := generate(dataset, alpha, sc)
	if err != nil {
		return nil, err
	}
	pspec := data.PartitionSpec{
		Data: spec, Clients: nClients, SamplesPerClient: perClient,
		Seed: sc.Seed + 1, Scheme: data.SchemeIID,
	}
	if alpha > 0 {
		pspec.Scheme, pspec.Alpha = data.SchemeDirichlet, alpha
	}
	if s.Cohort, err = data.NewLazyCohort(pspec); err != nil {
		return nil, err
	}
	return s, nil
}

// generate builds what both setups share — the dataset, its test split
// and the architecture matched to it — leaving the cohort to the caller.
func generate(dataset string, alpha float64, sc Scale) (s *Setup, spec data.Spec, train *data.Dataset, err error) {
	if spec, err = data.SpecByName(dataset, sc.ImageSize, sc.PerClass); err != nil {
		return nil, spec, nil, err
	}
	train, test := data.Generate(spec, sc.Seed)
	arch := nn.ConvNetConfig{
		InputH: spec.H, InputW: spec.W, InputC: spec.C,
		Classes: spec.Classes, Width: sc.Width, Depth: sc.Depth,
	}
	if err := arch.Validate(); err != nil {
		return nil, spec, nil, err
	}
	return &Setup{Dataset: dataset, Test: test, Arch: arch, Scale: sc, Alpha: alpha}, spec, train, nil
}

// CoreConfig builds the QuickDrop configuration for this setup. The paper
// hyperparameters that are scale-free (1 unlearn round at η=0.02, 2
// recovery rounds at η=0.01) are kept verbatim.
func (s *Setup) CoreConfig() core.Config {
	cfg := core.DefaultConfig(s.Arch)
	cfg.Train = core.PhaseParams{Rounds: s.Scale.TrainRound, LocalSteps: s.Scale.LocalSteps,
		BatchSize: s.Scale.BatchSize, LR: 0.1}
	cfg.Unlearn = core.PhaseParams{Rounds: 1, LocalSteps: s.Scale.LocalSteps,
		BatchSize: s.Scale.BatchSize, LR: 0.02}
	cfg.Recover = core.PhaseParams{Rounds: 2, LocalSteps: s.Scale.LocalSteps,
		BatchSize: s.Scale.BatchSize, LR: 0.01}
	cfg.Relearn = core.PhaseParams{Rounds: 2, LocalSteps: s.Scale.LocalSteps,
		BatchSize: s.Scale.BatchSize, LR: 0.01}
	// Paper scale s=100; tiny client shards always keep ≥1 synthetic
	// sample per held class through the ceiling, exactly as in the paper.
	cfg.Distill.Scale = 100
	cfg.Seed = s.Scale.Seed
	cfg.Telemetry = s.Scale.Telemetry
	return cfg
}

// BaselineConfig builds the shared baseline configuration.
func (s *Setup) BaselineConfig() baselines.Config {
	cfg := baselines.DefaultConfig(s.Arch)
	cc := s.CoreConfig()
	cfg.Train = cc.Train
	cfg.UnlearnPhase = cc.Unlearn
	cfg.RecoverPhase = cc.Recover
	// Baselines relearn on ORIGINAL data (paper §4.7); the learning rate
	// is tuned separately from QuickDrop's synthetic-data relearning.
	cfg.RelearnPhase = cc.Relearn
	cfg.RelearnPhase.LR = 0.05
	cfg.RetrainRounds = s.Scale.Retrain
	cfg.Seed = s.Scale.Seed
	cfg.Telemetry = s.Scale.Telemetry
	return cfg
}

// NewMethod constructs a baseline by name with this setup's default
// configuration.
func (s *Setup) NewMethod(name string) (baselines.Method, error) {
	return newMethod(name, s.BaselineConfig(), s)
}

// NewQuickDrop constructs (but does not train) the QuickDrop system.
func (s *Setup) NewQuickDrop() (*core.System, error) {
	return core.NewSystem(s.CoreConfig(), s.Cohort)
}

// ForgetOriginal returns the original-data forget set for a request,
// pooled across clients — the evaluation F-Set for client-level requests
// and for MIA.
func (s *Setup) ForgetOriginal(req core.Request) *data.Dataset {
	switch req.Kind {
	case core.ClassLevel:
		var parts []*data.Dataset
		for _, c := range s.Clients {
			parts = append(parts, c.OfClass(req.Class))
		}
		return data.Merge(parts...)
	case core.ClientLevel:
		return s.Clients[req.Client]
	default:
		return data.NewDataset(s.Arch.InputH, s.Arch.InputW, s.Arch.InputC, s.Arch.Classes)
	}
}

// RetainOriginal returns the pooled original retain data for a request.
func (s *Setup) RetainOriginal(req core.Request) *data.Dataset {
	var parts []*data.Dataset
	for i, c := range s.Clients {
		if req.Kind == core.ClientLevel && i == req.Client {
			continue
		}
		d := c
		if req.Kind == core.ClassLevel {
			d = d.WithoutClass(req.Class)
		}
		parts = append(parts, d)
	}
	return data.Merge(parts...)
}

// SplitAccuracy evaluates F-Set and R-Set accuracy for a request on the
// test set (class-level) or on the client's data vs the test set
// (client-level), matching the paper's metrics.
func (s *Setup) SplitAccuracy(m *nn.Model, req core.Request) (f, r float64) {
	switch req.Kind {
	case core.ClassLevel:
		return eval.ClassSplit(m, s.Test, req.Class)
	case core.ClientLevel:
		return eval.SubsetSplit(m, s.Clients[req.Client], s.Test)
	default:
		return 0, 0
	}
}
