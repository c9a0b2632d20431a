package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/eval"
)

// refSeconds is the run length the base operation counts refer to; it is
// BENCHMARK.json's run_seconds. -seconds scales the counts linearly.
const refSeconds = 20

// predictSamples is how many direct-predict samples a timed section
// takes, spread evenly over its steps; predictBatchCalls is the number of
// calls behind one sample (a single call is a few hundred microseconds).
const (
	predictSamples    = 200
	predictBatchCalls = 10
)

// qualityPasses is how many passes over the classes unlearn_class reads
// quality on.
const qualityPasses = 3

// samples collects what one section of a run measured.
type samples struct {
	opMS      []float64
	predictMS []float64
	// fsetAcc holds class-level F-Set accuracies after forgetting and
	// rsetAcc R-Set accuracies at the same points, as fractions.
	fsetAcc, rsetAcc  []float64
	attempted, failed int
	reasons           []string
	// seen remembers the first (F-Set, R-Set) reading per request so that
	// a repeat of the same (seed, request) can be checked to be
	// bit-identical.
	seen map[string][2]uint64
	// layer holds the per-layer series a trace run reports medians of.
	layer map[string][]float64
	// maxForgotten is the class-level F-Set accuracy above which an
	// operation counts as failed: the class was not forgotten.
	maxForgotten float64
}

func (e *env) newSamples() *samples {
	return &samples{seen: make(map[string][2]uint64), layer: make(map[string][]float64), maxForgotten: e.maxForgotten}
}

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.reasons) < 5 {
		s.reasons = append(s.reasons, fmt.Sprintf(format, args...))
	}
}

func (s *samples) add(name string, v float64) { s.layer[name] = append(s.layer[name], v) }

// quality records one reading of (F-Set, R-Set) accuracy and reports
// whether it repeats: quality is only ever read after an operation has
// returned, so the same (seed, request) must read the same to the last bit.
func (s *samples) quality(key string, classLevel bool, fset, rset float64) bool {
	if classLevel {
		s.fsetAcc = append(s.fsetAcc, fset)
	}
	s.rsetAcc = append(s.rsetAcc, rset)
	bits := [2]uint64{math.Float64bits(fset), math.Float64bits(rset)}
	if prev, ok := s.seen[key]; ok && prev != bits {
		s.fail("%s: quality not repeatable: F-Set %v then %v, R-Set %v then %v", key,
			math.Float64frombits(prev[0]), fset, math.Float64frombits(prev[1]), rset)
		return false
	}
	s.seen[key] = bits
	return true
}

// forgotten records the quality after a single class-level request on a
// freshly trained system and gates it: the reading must repeat and the
// class must be gone. The gate does not apply to serve_mixed, where eight
// requests pile up in one system and later classes are measurably harder
// to forget; there fset_forgotten_pct carries the quality and its bound
// guards it.
func (s *samples) forgotten(key string, fset, rset float64) bool {
	if !s.quality(key, true, fset, rset) {
		return false
	}
	if fset > s.maxForgotten {
		s.fail("%s: F-Set accuracy %.3f after forgetting exceeds %.2f", key, fset, s.maxForgotten)
		return false
	}
	return true
}

// workload is one named traffic shape. step runs one fixed unit of it:
// untimed preparation, the timed operation(s), then untimed checks.
type workload struct {
	name string
	// baseSteps is the number of steps at refSeconds.
	baseSteps int
	// setup does everything that precedes the first timed operation
	// except generating the data, and ends with one untimed warm-up step.
	setup func(e *env) error
	step  func(e *env, i int, s *samples, tr *tracer, parent int)
	// ownPredict marks a workload whose steps time predictions themselves
	// (serve_mixed, over HTTP), so no direct Predict samples are taken
	// between its steps.
	ownPredict bool
}

var workloads = []*workload{
	{name: "train_distill", baseSteps: 24, setup: setupTrainDistill, step: stepTrainDistill},
	{name: "unlearn_class", baseSteps: 200, setup: setupUnlearnClass, step: stepUnlearnClass},
	{name: "retrain_baseline", baseSteps: 30, setup: setupRetrain, step: stepRetrain},
	{name: "serve_mixed", baseSteps: 18, setup: setupServe, step: stepServeEpoch, ownPredict: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmUp runs one untimed step so that lazily built state (pools, page
// faults, the HTTP stack) is paid for in set-up, not in the first sample.
func warmUp(step func(*env, int, *samples, *tracer, int), e *env) error {
	s := e.newSamples()
	step(e, 0, s, nil, 0)
	if s.failed > 0 {
		return fmt.Errorf("warm-up step failed: %s", s.reasons[0])
	}
	return nil
}

// train_distill: one caller trains a fresh system, closed loop. The
// set-up's full training run doubles as the warm-up and, after a class-3
// Unlearn, as the workload's quality sample.

func setupTrainDistill(e *env) error {
	sys, err := e.trainCore()
	if err != nil {
		return err
	}
	const class = 3
	if _, err := sys.Unlearn(core.Request{Kind: core.ClassLevel, Class: class}); err != nil {
		return fmt.Errorf("unlearn: %w", err)
	}
	e.setupFset, e.setupRset = eval.ClassSplit(sys.Model, e.test, class)
	e.hasSetupQuality = true
	e.left = sys.Model
	return nil
}

func stepTrainDistill(e *env, i int, s *samples, tr *tracer, parent int) {
	s.attempted++
	cfg := e.cfg
	cfg.Train.Rounds = e.opTrainRounds
	sys, err := core.NewSystem(cfg, e.cohort)
	if err != nil {
		s.fail("new system: %v", err)
		return
	}
	runtime.GC()
	t0 := time.Now()
	_, err = sys.Train()
	t1 := time.Now()
	if err != nil {
		s.fail("train: %v", err)
		return
	}
	s.opMS = append(s.opMS, ms(t1.Sub(t0)))
	tr.add("op.train", t0, t1, parent, i+1)
	e.left = sys.Model
}

// unlearn_class: the paper's headline operation, one caller, closed
// loop: SGA on the synthetic forget set, then recovery.

func setupUnlearnClass(e *env) error {
	if _, err := e.trainCore(); err != nil {
		return err
	}
	return warmUp(stepUnlearnClass, e)
}

func stepUnlearnClass(e *env, i int, s *samples, tr *tracer, parent int) {
	s.attempted++
	req := core.Request{Kind: core.ClassLevel, Class: i % e.classes()}
	// Stage boundaries come from core.Config.Observer, and only when
	// tracing, so the untraced run calls exactly what a user calls.
	var marks [2]time.Time
	var observer func(string)
	if tr != nil {
		observer = func(stage string) {
			switch stage {
			case "unlearn":
				marks[0] = time.Now()
			case "recover":
				marks[1] = time.Now()
			}
		}
	}
	var rep core.Report
	sys, t0, t1, err := e.timedOn(observer, nil, func(sys *core.System) (err error) {
		rep, err = sys.Unlearn(req)
		return err
	})
	if err != nil {
		s.fail("%v: %v", req, err)
		return
	}
	if tr != nil {
		op := tr.add("op.unlearn", t0, t1, parent, i+1)
		tr.add("core.sga", t0, marks[0], op, i+1)
		tr.add("core.recover", marks[0], marks[1], op, i+1)
	}
	e.left = sys.Model
	// Evaluating 500 test samples costs a third of the operation, and the
	// reading is a function of (seed, class) alone, so it is taken on the
	// first qualityPasses passes over the classes: every class is read,
	// and read again to check that it repeats.
	if i < qualityPasses*e.classes() {
		t2 := time.Now()
		fset, rset := eval.ClassSplit(sys.Model, e.test, req.Class)
		tr.add("eval.class_split", t2, time.Now(), parent, i+1)
		if !s.forgotten(req.String(), fset, rset) {
			return
		}
	}
	s.opMS = append(s.opMS, ms(t1.Sub(t0)))
	s.add("core.unlearn_ms", ms(t1.Sub(t0)))
	s.add("core.sga_ms", ms(rep.Unlearn.WallTime))
	s.add("core.recover_ms", ms(rep.Recover.WallTime))
}

// timedOn loads the trained state into a fresh system, runs prep on it
// (may be nil) and collects garbage, all off the clock, then times fn on
// that system: no operation inherits another's model, forget ledger or
// heap.
func (e *env) timedOn(observer func(string), prep, fn func(*core.System) error) (sys *core.System, t0, t1 time.Time, err error) {
	sys, err = e.freshSystem(observer)
	if err == nil && prep != nil {
		err = prep(sys)
	}
	if err != nil {
		return nil, t0, t1, err
	}
	runtime.GC()
	t0 = time.Now()
	err = fn(sys)
	return sys, t0, time.Now(), err
}

// retrain_baseline: the denominator of the paper's speed-up. The same
// fl/nn/tensor round loop on original-data batches, with no distill, no
// core pipeline and no serving layer.

func setupRetrain(e *env) error {
	ref, err := baselines.NewRetrainOr(e.bcfg, e.cohort)
	if err != nil {
		return err
	}
	if err := ref.Prepare(); err != nil {
		return fmt.Errorf("reference training: %w", err)
	}
	e.left = ref.Model()
	e.refAcc = eval.Accuracy(ref.Model(), e.test)
	return warmUp(stepRetrain, e)
}

func stepRetrain(e *env, i int, s *samples, tr *tracer, parent int) {
	s.attempted++
	// The initial model is thrown away by the retraining, so one round
	// is enough preparation; the operation is the retraining itself.
	cfg := e.bcfg
	cfg.Train.Rounds = 1
	cfg.RetrainRounds = e.retrainRounds
	t0 := time.Now()
	m, err := baselines.NewRetrainOr(cfg, e.cohort)
	if err == nil {
		err = m.Prepare()
	}
	if err != nil {
		s.fail("prepare: %v", err)
		return
	}
	s.add("baselines.prepare_ms", ms(time.Since(t0)))
	req := core.Request{Kind: core.ClassLevel, Class: i % e.classes()}
	runtime.GC()
	t0 = time.Now()
	_, err = m.Unlearn(req)
	t1 := time.Now()
	if err != nil {
		s.fail("retrain %v: %v", req, err)
		return
	}
	tr.add("op.retrain", t0, t1, parent, i+1)
	e.left = m.Model()
	fset, rset := eval.ClassSplit(m.Model(), e.test, req.Class)
	if s.forgotten(req.String(), fset, rset) {
		s.opMS = append(s.opMS, ms(t1.Sub(t0)))
	}
}

// runSteps runs n steps of the workload into a fresh collector. For
// workloads that do not measure predictions themselves, each step is
// followed, off the operation's clock, by its share of the direct predict
// samples on the model that step left behind: spread over the whole
// section, the predict median sees the same mix of machine states as the
// operation median instead of one sub-second window at the end.
func runSteps(w *workload, e *env, n int, tr *tracer, parent int) *samples {
	s := e.newSamples()
	perStep := (predictSamples + n - 1) / n
	for i := 0; i < n; i++ {
		w.step(e, i, s, tr, parent)
		if !w.ownPredict && e.left != nil {
			timePredict(e, s, perStep)
		}
	}
	if e.hasSetupQuality {
		s.forgotten("set-up unlearn", e.setupFset, e.setupRset)
	}
	return s
}

// timePredict takes n samples of the 8-input prediction on the model the
// last step left behind, each the mean of predictBatchCalls calls.
func timePredict(e *env, s *samples, n int) {
	x := e.predictBatch()
	want := x.Dim(0)
	for i := 0; i < n; i++ {
		s.attempted++
		t0 := time.Now()
		for j := 0; j < predictBatchCalls; j++ {
			if got := e.left.Predict(x); len(got) != want {
				s.fail("predict returned %d labels, want %d", len(got), want)
				return
			}
		}
		s.predictMS = append(s.predictMS, ms(time.Since(t0))/predictBatchCalls)
	}
}
