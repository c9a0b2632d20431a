package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

// substrate is the generated input every workload shares: a procedural
// dataset, its IID partition over the clients, and the QuickDrop and
// baseline configurations. Everything derives from the seed; the program
// under test only ever sees these generated inputs.
type substrate struct {
	seed   int64
	spec   data.Spec
	train  *data.Dataset
	test   *data.Dataset
	parts  []*data.Dataset
	cohort *data.Cohort
	cfg    core.Config
	bcfg   baselines.Config
	// opTrainRounds is the length of train_distill's timed Train;
	// retrainRounds is what Retrain-Or needs from scratch.
	opTrainRounds int
	retrainRounds int
	// maxForgotten is the class-level F-Set accuracy above which a
	// forgetting operation counts as failed.
	maxForgotten float64
}

// newSubstrate generates the inputs. The full scale is the one every
// committed number refers to: 8×8 single-channel images, 10 classes, 20
// training and 50 test samples per class (so one F-Set sample is 2 points
// and one R-Set sample 0.22), 4 IID clients, a width-8 depth-2 ConvNet,
// 15 training rounds and distillation scale 5. The quick scale is the
// serve package's test fixture; it exists so the smoke test can run
// every workload in seconds and its numbers mean nothing.
func newSubstrate(seed int64, quick bool) *substrate {
	s := &substrate{seed: seed, opTrainRounds: 2, retrainRounds: 15, maxForgotten: 0.10}
	const clients = 4
	if quick {
		// Eight classes, because a serve_mixed epoch names seven distinct
		// ones; a model this small barely learns, so forgetting is not
		// judged.
		s.spec = data.Spec{Name: "quick", H: 6, W: 6, C: 1, Classes: 8,
			TrainPerClass: 8, TestPerClass: 4, Noise: 0.1, Jitter: 1}
		s.opTrainRounds, s.retrainRounds, s.maxForgotten = 1, 2, 1
		s.cfg = core.Config{
			Arch:    nn.ConvNetConfig{InputH: 6, InputW: 6, InputC: 1, Classes: 8, Width: 4, Depth: 1},
			Train:   core.PhaseParams{Rounds: 2, LocalSteps: 2, BatchSize: 8, LR: 0.1},
			Unlearn: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.02},
			Recover: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
			Relearn: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
			Distill: distill.Config{Scale: 2, Steps: 1, LR: 0.1, RealBatch: 8, Eps: 1e-6},
			Augment: true,
		}
	} else {
		s.spec = data.MNISTLike(8, 20)
		s.spec.TestPerClass = 50
		s.cfg = core.DefaultConfig(nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2})
		s.cfg.Train.Rounds = 15
		s.cfg.Distill.Scale = 5
	}
	s.cfg.Seed = seed
	s.train, s.test = data.Generate(s.spec, seed)
	s.parts = data.PartitionIID(s.train, clients, rand.New(rand.NewSource(seed)))
	s.cohort = data.NewCohort(s.parts)
	s.bcfg = baselines.DefaultConfig(s.cfg.Arch)
	s.bcfg.Train = s.cfg.Train
	s.bcfg.Seed = seed
	return s
}

func (s *substrate) classes() int { return s.spec.Classes }
func (s *substrate) clients() int { return len(s.parts) }

// sampleOf returns the index of a local sample of the client that has
// the given class, or of the next class the client does hold (an IID
// shard of ~50 samples can miss a class).
func (s *substrate) sampleOf(client, class int) int {
	for d := 0; d < s.classes(); d++ {
		want := (class + d) % s.classes()
		for i, y := range s.parts[client].Y {
			if y == want {
				return i
			}
		}
	}
	return 0
}

// predictBatch is the 8-input batch every predict metric is timed on.
func (s *substrate) predictBatch() *tensor.Tensor {
	x, _ := s.test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	return x
}

// env is what a workload's set-up leaves for its timed operations.
type env struct {
	*substrate
	quick bool
	// state is core.SaveState of the fully trained system; operations
	// that need a trained system load it into a fresh one off the clock,
	// so no operation inherits another's model or heap.
	state []byte
	// train15 is the wall time of the full training run behind state and
	// ddShare the part of it the distillation hook took.
	train15 time.Duration
	ddShare float64
	// setupFset/setupRset are train_distill's quality sample, taken on
	// the system its set-up trains and unlearns.
	setupFset, setupRset float64
	hasSetupQuality      bool
	// refAcc is the test accuracy of retrain_baseline's reference model,
	// the level its R-Set accuracy is read against.
	refAcc float64
	// left is the model the most recent operation left behind; the
	// closing predict section runs on it.
	left *nn.Model
}

// trainCore runs the full training and saves the state. Set-ups call it
// directly; the layer probes call ensureCore so that a workload that
// never trains QuickDrop (retrain_baseline) still gets its core probes.
func (e *env) trainCore() (*core.System, error) {
	sys, err := core.NewSystem(e.cfg, e.cohort)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := sys.Train()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	e.train15 = time.Since(t0)
	if res.WallTime > 0 {
		e.ddShare = float64(sys.Matcher.DDTime) / float64(res.WallTime)
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		return nil, fmt.Errorf("save state: %w", err)
	}
	e.state = buf.Bytes()
	return sys, nil
}

func (e *env) ensureCore() error {
	if e.state != nil {
		return nil
	}
	_, err := e.trainCore()
	return err
}

// freshSystem builds a new system and loads the trained state into it.
// observer, when set, is core.Config.Observer: the stage boundaries the
// traced run turns into spans.
func (e *env) freshSystem(observer func(stage string)) (*core.System, error) {
	cfg := e.cfg
	cfg.Observer = observer
	sys, err := core.NewSystem(cfg, e.cohort)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadState(bytes.NewReader(e.state)); err != nil {
		return nil, fmt.Errorf("load state: %w", err)
	}
	return sys, nil
}
