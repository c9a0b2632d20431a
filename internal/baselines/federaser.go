package baselines

import (
	"fmt"
	"sort"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/optim"
	"quickdrop/internal/tensor"
)

// FedEraser (Liu et al. 2021) trades server storage for unlearning speed:
// during training it records every participating client's per-round
// parameter update; to unlearn, it replays training from the initial model
// with the stored update *norms* but fresh *directions* obtained from a
// few cheap calibration steps on the retain data. Storage grows linearly
// with clients × rounds — the drawback the paper highlights.
type FedEraser struct {
	*base
	// CalibrationSteps is how many local steps calibration uses — a small
	// fraction of the training T (FedEraser's speedup lever).
	CalibrationSteps int
	// Interval keeps every Interval-th round's updates (≥1).
	Interval int
	// SnapshotBudget caps how many float64 parameters the update history
	// may retain (0 means DefaultSnapshotBudget). FedEraser's storage grows
	// as clients × rounds × model size, so at registry scale (millions of
	// clients) Prepare refuses up front rather than exhausting memory.
	SnapshotBudget int

	initParams []*tensor.Tensor
	// history[k] maps clientID → that client's recorded update Δ in round k.
	history []map[int][]*tensor.Tensor
	// StoredFloats counts the retained parameters (storage cost).
	StoredFloats int
	// overBudget marks that recording stopped mid-training because the
	// budget ran out; replay would be incomplete, so Unlearn refuses.
	overBudget bool
}

// DefaultSnapshotBudget is the default cap on recorded history:
// 64M float64 parameters (512 MiB). Generous for the paper's cohort
// sizes, far below what a million-client registry would demand.
const DefaultSnapshotBudget = 64 << 20

// NewFedEraser constructs the baseline.
func NewFedEraser(cfg Config, clients fl.ClientRegistry) (*FedEraser, error) {
	b, err := newBase(cfg, clients)
	if err != nil {
		return nil, err
	}
	return &FedEraser{base: b, CalibrationSteps: 1, Interval: 1}, nil
}

// snapshotBudget resolves the configured cap.
func (f *FedEraser) snapshotBudget() int {
	if f.SnapshotBudget > 0 {
		return f.SnapshotBudget
	}
	return DefaultSnapshotBudget
}

// estimateStoredFloats predicts the history size Prepare would record:
// participants per recorded round × recorded rounds × model parameters.
func (f *FedEraser) estimateStoredFloats() int {
	params := 0
	for _, p := range f.model.ParamTensors() {
		params += p.Len()
	}
	perRound := f.numClients()
	if frac := f.cfg.Train.Participation; frac > 0 && frac < 1 {
		perRound = int(float64(perRound)*frac) + 1
	}
	recordedRounds := (f.cfg.Train.Rounds + f.Interval - 1) / f.Interval
	return perRound * recordedRounds * params
}

// Name implements Method.
func (f *FedEraser) Name() string { return "FedEraser" }

// Capabilities implements Method.
func (f *FedEraser) Capabilities() Capabilities {
	return Capabilities{
		Name: f.Name(), ClassLevel: true, ClientLevel: true, SampleLevel: true, Relearn: true,
		StorageEfficient: false, ComputeEfficiency: "low",
	}
}

// Prepare implements Method: standard FL training with update recording.
func (f *FedEraser) Prepare() error {
	if f.Interval < 1 || f.CalibrationSteps < 1 {
		return fmt.Errorf("baselines: invalid FedEraser settings interval=%d calSteps=%d", f.Interval, f.CalibrationSteps)
	}
	if est, budget := f.estimateStoredFloats(), f.snapshotBudget(); est > budget {
		return fmt.Errorf("baselines: FedEraser would record ~%d floats of update history "+
			"(%d clients × %d rounds / interval %d) but SnapshotBudget is %d; "+
			"raise the budget, increase Interval, or use a storage-efficient method at this scale",
			est, f.numClients(), f.cfg.Train.Rounds, f.Interval, budget)
	}
	f.initParams = f.model.CloneParams()
	return f.trainInitial(func(cfg *fl.PhaseConfig) {
		cfg.UpdateHook = func(round, clientID int, before, after []*tensor.Tensor) {
			if round%f.Interval != 0 || f.overBudget {
				return
			}
			size := 0
			for i := range after {
				size += after[i].Len()
			}
			if f.StoredFloats+size > f.snapshotBudget() {
				// The pre-flight estimate undershot (e.g. participation
				// rounding); stop recording and let Unlearn report it.
				f.overBudget = true
				return
			}
			k := round / f.Interval
			for len(f.history) <= k {
				f.history = append(f.history, make(map[int][]*tensor.Tensor))
			}
			delta := make([]*tensor.Tensor, len(after))
			for i := range after {
				delta[i] = after[i].Sub(before[i])
				f.StoredFloats += delta[i].Len()
			}
			f.history[k][clientID] = delta
		}
	})
}

// Unlearn implements Method: calibrated replay of the recorded rounds on
// the retain data, followed by a short standard recovery phase.
func (f *FedEraser) Unlearn(req core.Request) (Result, error) {
	if err := f.checkUnlearn(req, f.Capabilities()); err != nil {
		return Result{}, err
	}
	if f.overBudget {
		return Result{}, fmt.Errorf("baselines: FedEraser history is incomplete — "+
			"recording stopped at the %d-float SnapshotBudget, so calibrated replay would be wrong", f.snapshotBudget())
	}
	if _, err := f.forgetShards(req); err != nil {
		return Result{}, err
	}
	f.forget.Mark(req, true)
	retain := f.retainShards()

	var res Result
	// Calibrated replay runs outside RunPhase, so it gets its own
	// telemetry phase.
	pt := f.cfg.Telemetry.StartPhase("calibrate")
	f.model.SetParams(f.initParams)
	replayed := 0
	samples := 0
	for _, roundUpdates := range f.history {
		if len(roundUpdates) == 0 {
			continue
		}
		if err := f.calibratedRound(roundUpdates, retain, &samples); err != nil {
			f.forget.Mark(req, false)
			return res, err
		}
		replayed++
	}
	res.Unlearn = eval.Cost{Rounds: replayed, WallTime: pt.Stop(), DataSize: samples}
	f.observe("unlearn")

	var err error
	res.Recover, err = f.runPhase(retain, f.cfg.RecoverPhase, optim.Descend, "recover")
	if err != nil {
		return res, err
	}
	res.finish()
	f.observe("recover")
	return res, nil
}

// calibratedRound applies one FedEraser update: every retained client with
// a recorded update runs CalibrationSteps cheap local steps; the new
// global step keeps the stored update's norm but the calibrated direction.
func (f *FedEraser) calibratedRound(recorded map[int][]*tensor.Tensor, retain []*data.Dataset, samples *int) error {
	global := f.model.CloneParams()
	agg := make([]*tensor.Tensor, len(global))
	for i, g := range global {
		agg[i] = tensor.NewLike(g)
	}
	// Aggregate in client-ID order: ranging over the map would reorder
	// the floating-point sums run to run.
	ids := make([]int, 0, len(recorded))
	for id := range recorded {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	totalWeight := 0.0
	for _, clientID := range ids {
		delta := recorded[clientID]
		ds := retain[clientID]
		if ds == nil || ds.Len() == 0 {
			continue // the forgotten client (or one with no retain data)
		}
		f.model.SetParams(global)
		f.localCalibration(ds)
		*samples += min(ds.Len(), f.CalibrationSteps*f.cfg.Train.BatchSize)
		w := float64(ds.Len())
		totalWeight += w
		for i, p := range f.model.ParamTensors() {
			cal := p.Sub(global[i])
			calNorm, oldNorm := cal.Norm(), delta[i].Norm()
			if calNorm > 1e-12 {
				cal.ScaleInPlace(oldNorm / calNorm)
			}
			agg[i].AxpyInPlace(w, global[i].Add(cal))
		}
	}
	if totalWeight == 0 {
		return fmt.Errorf("baselines: FedEraser has no retained client to calibrate with")
	}
	for i := range agg {
		agg[i].ScaleInPlace(1 / totalWeight)
	}
	f.model.SetParams(agg)
	return nil
}

func (f *FedEraser) localCalibration(ds *data.Dataset) {
	opt := optim.NewSGD(f.cfg.Train.LR)
	grads := make([]*tensor.Tensor, len(f.model.Params()))
	for step := 0; step < f.CalibrationSteps; step++ {
		x, labels := ds.SampleBatch(f.rng, f.cfg.Train.BatchSize)
		f.model.LossGrads(grads, x, labels)
		opt.Step(f.model.ParamTensors(), grads)
		f.model.Arena().Reset()
		f.counter.AddBatch(len(labels))
	}
}

// Relearn implements Method.
func (f *FedEraser) Relearn(req core.Request) (Result, error) { return f.relearnOriginal(req) }
