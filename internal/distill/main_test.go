package distill

import (
	"math/rand"
	"os"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/leakcheck"
	"quickdrop/internal/nn"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m, lockProbes())) }

// lockProbes drives every path of MatchStep that locks Matcher.mu: both
// objectives, with and without a recorded grouping.
func lockProbes() []leakcheck.Lock {
	client, _ := data.Generate(data.MNISTLike(8, 2), 1)
	rng := rand.New(rand.NewSource(2))
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 2, Depth: 1}
	ctx := fl.StepContext{ClientID: 0, Model: nn.NewConvNet(arch, rng), Client: client, Rng: rng}
	matcher := func(obj Objective, grouped bool) *Matcher {
		cfg := DefaultConfig()
		cfg.Scale, cfg.Steps, cfg.Objective = 2, 1, obj
		mt := NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
		if !grouped {
			delete(mt.Groupings, 0)
		}
		return mt
	}
	var probes []leakcheck.Lock
	for _, c := range []struct {
		method  string
		obj     Objective
		grouped bool
	}{
		{"Matcher.MatchStep (gradient, grouped)", GradientMatching, true},
		{"Matcher.MatchStep (gradient, class-wise)", GradientMatching, false},
		{"Matcher.MatchStep (distribution)", DistributionMatching, true},
	} {
		mt := matcher(c.obj, c.grouped)
		probes = append(probes, leakcheck.Lock{Method: c.method, Mutex: "Matcher.mu", Mu: &mt.mu, Call: func() { mt.MatchStep(ctx) }})
	}
	return probes
}
