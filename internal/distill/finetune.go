package distill

import (
	"fmt"
	"math/rand"

	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/tensor"
)

// Augment mixes original samples into the synthetic set 1:1 per class
// (paper §3.3.1): for every class, as many randomly selected real samples
// as there are synthetic ones are cloned in. The result is ≈ 2/s of the
// original volume; the paper found this markedly improves recovery.
func Augment(synthetic, original *data.Dataset, rng *rand.Rand) *data.Dataset {
	out := data.NewDataset(synthetic.H, synthetic.W, synthetic.C, synthetic.Classes)
	realByClass := original.ByClass()
	for i, x := range synthetic.X {
		out.Append(x, synthetic.Y[i])
	}
	for _, c := range sortedKeys(synthetic.ByClass()) {
		synCount := len(synthetic.ByClass()[c])
		realIdx := realByClass[c]
		if len(realIdx) == 0 {
			continue
		}
		perm := rng.Perm(len(realIdx))
		for i := 0; i < synCount && i < len(perm); i++ {
			out.Append(original.X[realIdx[perm[i]]].Clone(), c)
		}
	}
	return out
}

// FineTuneConfig parameterizes the optional post-training refinement of
// the synthetic data (paper §3.3.2), which runs the generalization-
// targeted condensation of Zhao et al. across fresh random network
// initializations.
type FineTuneConfig struct {
	// OuterSteps is F: the number of random re-initializations (the paper
	// varies 0–200 and finds 200 closes the gap to the retraining oracle).
	OuterSteps int
	// InnerSteps per re-initialization (paper: 50).
	InnerSteps int
	// ModelLR trains the scratch model on the synthetic data between
	// matching updates, advancing the trajectory being matched.
	ModelLR float64
	// Arch is the network family to draw re-initializations from.
	Arch nn.ConvNetConfig
	// Match carries the matching hyperparameters (LR, steps, batch, eps).
	Match Config
}

// Validate reports configuration errors.
func (c FineTuneConfig) Validate() error {
	if c.OuterSteps < 0 || c.InnerSteps < 1 || c.ModelLR <= 0 {
		return fmt.Errorf("distill: invalid fine-tune config %+v", c)
	}
	if err := c.Arch.Validate(); err != nil {
		return err
	}
	return c.Match.Validate()
}

// FineTune refines a client's synthetic set against its real data,
// matching gradients at OuterSteps fresh initializations. It returns the
// number of real-data gradient evaluations performed, which Figure 5
// compares against the FL-training gradient budget.
func FineTune(syn, real *data.Dataset, cfg FineTuneConfig, rng *rand.Rand) (optim.Counter, error) {
	var counter optim.Counter
	if err := cfg.Validate(); err != nil {
		return counter, err
	}
	if syn.Len() == 0 || real.Len() == 0 {
		return counter, fmt.Errorf("distill: FineTune needs non-empty synthetic and real sets")
	}
	matcher := &Matcher{Cfg: cfg.Match, Sets: map[int]*data.Dataset{0: syn}, Distance: MatchDistance}
	for outer := 0; outer < cfg.OuterSteps; outer++ {
		model := nn.NewConvNetLike(cfg.Arch, rng)
		opt := optim.NewSGD(cfg.ModelLR)
		gt := make([]*tensor.Tensor, len(model.Params()))
		for inner := 0; inner < cfg.InnerSteps; inner++ {
			// Match synthetic gradients to real gradients at the current θ.
			matcher.MatchStep(fl.StepContext{
				Round: outer, Step: inner, ClientID: 0,
				Model: model, Client: real, Rng: rng,
			})
			// Advance θ by training on the synthetic data so later inner
			// steps match deeper into the trajectory (Zhao et al.).
			x, labels := syn.SampleBatch(rng, cfg.Match.RealBatch)
			model.LossGrads(gt, x, labels)
			opt.Step(model.ParamTensors(), gt)
			model.Arena().Reset()
		}
	}
	counter.Add(matcher.Counter)
	return counter, nil
}
