// Command distill runs QuickDrop's dataset distillation standalone: it
// trains a model on one synthetic-vision dataset while matching a compact
// synthetic set, reports how far the synthetic gradients moved toward the
// real ones, and optionally persists the distilled set for later
// unlearning.
//
// Usage:
//
//	distill -dataset cifarlike -s 10 -rounds 10 -out synthetic.bin
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/experiments"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cifarlike", "dataset: mnistlike|cifarlike|svhnlike")
		scaleName = flag.String("scale", "quick", "substrate scale preset")
		s         = flag.Float64("s", 10, "distillation scale parameter")
		rounds    = flag.Int("rounds", 10, "training rounds to distill across")
		groups    = flag.Int("groups", 1, "sub-class groups per class (sample-level granularity)")
		objective = flag.String("objective", "gradient", "distillation objective: gradient|distribution")
		out       = flag.String("out", "", "write the distilled dataset to this file")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	sc.Seed = *seed
	setup, err := experiments.NewSetup(*dataset, 1, 0, sc)
	if err != nil {
		fatal(err)
	}
	client := setup.Clients[0]

	cfg := distill.DefaultConfig()
	cfg.Scale = *s
	cfg.Groups = *groups
	switch *objective {
	case "gradient":
		cfg.Objective = distill.GradientMatching
	case "distribution":
		cfg.Objective = distill.DistributionMatching
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}

	rng := rand.New(rand.NewSource(*seed))
	matcher := distill.NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	model := nn.NewConvNet(setup.Arch, rng)

	before := gradientDistance(model, client, matcher.Sets[0], cfg.Eps)
	start := time.Now()
	if _, err := fl.RunPhase(model, []*data.Dataset{client}, fl.PhaseConfig{
		Rounds: *rounds, LocalSteps: sc.LocalSteps, BatchSize: sc.BatchSize, LR: 0.1,
		Hook: matcher.Hook(),
	}, rng); err != nil {
		fatal(err)
	}
	after := gradientDistance(model, client, matcher.Sets[0], cfg.Eps)

	syn := matcher.Sets[0]
	fmt.Printf("distilled %d real samples into %d synthetic (%s, %d groups/class)\n",
		client.Len(), syn.Len(), cfg.Objective, *groups)
	fmt.Printf("gradient distance at final model: %.4f → %.4f (lower is better)\n", before, after)
	fmt.Printf("training+distillation took %s (distillation share %s, %d grad evals)\n",
		time.Since(start).Round(time.Millisecond), matcher.DDTime.Round(time.Millisecond), matcher.Counter.GradEvals)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if _, err := syn.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("synthetic dataset written to %s\n", *out)
	}
}

// gradientDistance measures the class-averaged grouped-cosine distance
// between real and synthetic gradients at the current model. Each class's
// graphs live in the model's step arena, from a Mark to the Rewind to it.
func gradientDistance(model *nn.Model, real, syn *data.Dataset, eps float64) float64 {
	arena := model.Arena()
	total, classes := 0.0, 0
	for c := 0; c < real.Classes; c++ {
		r, s := real.OfClass(c), syn.OfClass(c)
		if r.Len() == 0 || s.Len() == 0 {
			continue
		}
		mark := arena.Mark()
		gD := classGrads(model, r)
		gS := classGrads(model, s)
		total += distill.MatchDistance(gS, gD, eps).Item()
		arena.Rewind(mark)
		classes++
	}
	if classes == 0 {
		return 0
	}
	return total / float64(classes)
}

// classGrads returns the loss gradients of the model on ds as constants
// of the model's step arena.
func classGrads(model *nn.Model, ds *data.Dataset) []*ad.Value {
	x, labels := ds.All()
	grads := make([]*tensor.Tensor, len(model.Params()))
	model.LossGrads(grads, x, labels)
	gs := make([]*ad.Value, len(grads))
	for i, g := range grads {
		gs[i] = model.Arena().Const(g)
	}
	return gs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distill:", err)
	os.Exit(1)
}
