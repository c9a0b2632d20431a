package distill

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

func clientSet(t *testing.T, perClass int, seed int64) *data.Dataset {
	t.Helper()
	spec := data.MNISTLike(8, perClass)
	train, _ := data.Generate(spec, seed)
	return train
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scale: 0, Steps: 1, LR: 0.1, RealBatch: 1, Eps: 1e-6},
		{Scale: 10, Steps: 0, LR: 0.1, RealBatch: 1, Eps: 1e-6},
		{Scale: 10, Steps: 1, LR: 0, RealBatch: 1, Eps: 1e-6},
		{Scale: 10, Steps: 1, LR: 0.1, RealBatch: 0, Eps: 1e-6},
		{Scale: 10, Steps: 1, LR: 0.1, RealBatch: 1, Eps: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

// Property: |S_ic| = ⌈|D_ic|/s⌉ — the paper's sizing invariant, including
// the at-least-one-sample-per-held-class guarantee.
func TestInitSyntheticSizing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		scale := float64(1 + r.Intn(200))
		client := clientSet(t, 1+r.Intn(20), seed)
		cfg := DefaultConfig()
		cfg.Scale = scale
		syn := InitSynthetic(client, cfg, r)
		realCounts := client.ClassCounts()
		synCounts := syn.ClassCounts()
		for c := range realCounts {
			if realCounts[c] == 0 {
				if synCounts[c] != 0 {
					return false
				}
				continue
			}
			want := (realCounts[c] + int(scale) - 1) / int(scale)
			if synCounts[c] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInitSyntheticClones(t *testing.T) {
	client := clientSet(t, 4, 1)
	cfg := DefaultConfig()
	cfg.Scale = 2
	syn := InitSynthetic(client, cfg, rand.New(rand.NewSource(2)))
	// Mutating synthetic samples must not touch the originals.
	for _, x := range syn.X {
		x.ScaleInPlace(0)
	}
	nonzero := false
	for _, x := range client.X {
		if x.Norm() > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("InitSynthetic must clone, not alias, real samples")
	}
}

func TestInitSyntheticNoise(t *testing.T) {
	client := clientSet(t, 4, 3)
	cfg := DefaultConfig()
	cfg.Scale = 2
	cfg.NoiseInit = true
	syn := InitSynthetic(client, cfg, rand.New(rand.NewSource(4)))
	if syn.Len() == 0 {
		t.Fatal("empty synthetic set")
	}
	// Noise init should not coincide with any real sample.
	for _, s := range syn.X {
		for _, x := range client.X {
			if s.Sub(x).Norm() < 1e-9 {
				t.Fatal("noise init equals a real sample")
			}
		}
	}
}

func TestMatchDistanceIdenticalGradsNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := []*ad.Value{
		ad.Const(tensor.Randn(rng, 1, 6, 4)),
		ad.Const(tensor.Randn(rng, 1, 4)),
	}
	d := MatchDistance(g, g, 1e-6).Item()
	if d < 0 || d > 1e-3 {
		t.Fatalf("distance of identical grads = %g, want ≈0", d)
	}
}

func TestMatchDistanceOppositeGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := tensor.Randn(rng, 1, 5, 3)
	gS := []*ad.Value{ad.Const(a)}
	gD := []*ad.Value{ad.Const(tensor.ScaleInto(nil, a, -1))}
	d := MatchDistance(gS, gD, 1e-6).Item()
	// Each of the 3 column groups contributes 1 − (−1) = 2.
	if math.Abs(d-6) > 1e-3 {
		t.Fatalf("distance of opposite grads = %g, want ≈6", d)
	}
}

func TestMatchDistanceScaleInvariantPerGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := tensor.Randn(rng, 1, 5, 2)
	d1 := MatchDistance([]*ad.Value{ad.Const(a)}, []*ad.Value{ad.Const(tensor.ScaleInto(nil, a, 7))}, 1e-9).Item()
	if d1 > 1e-6 {
		t.Fatalf("cosine distance must be scale invariant, got %g", d1)
	}
}

func TestMatchDistanceGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := tensor.Randn(rng, 1, 4, 3)
	d := tensor.Randn(rng, 1, 4, 3)
	err := ad.CheckGradient(func(xs []*ad.Value) *ad.Value {
		return MatchDistance([]*ad.Value{xs[0]}, []*ad.Value{ad.Const(d)}, 1e-6)
	}, []*tensor.Tensor{s}, 1e-6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestL2DistanceZeroAndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := tensor.Randn(rng, 1, 3, 2)
	if d := L2Distance([]*ad.Value{ad.Const(a)}, []*ad.Value{ad.Const(a)}, 0).Item(); d != 0 {
		t.Fatalf("L2 self distance = %g", d)
	}
	b := tensor.Randn(rng, 1, 3, 2)
	err := ad.CheckGradient(func(xs []*ad.Value) *ad.Value {
		return L2Distance([]*ad.Value{xs[0]}, []*ad.Value{ad.Const(b)}, 0)
	}, []*tensor.Tensor{a}, 1e-6, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
}

// The core mechanism: a matching step must reduce the gradient distance
// between synthetic and real data.
func TestMatchStepReducesDistance(t *testing.T) {
	client := clientSet(t, 10, 10)
	cfg := DefaultConfig()
	cfg.Scale = 5
	cfg.LR = 0.5
	cfg.Steps = 1
	rng := rand.New(rand.NewSource(11))
	matcher := NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 4, Depth: 1}
	model := nn.NewConvNet(arch, rng)

	dist := func() float64 {
		// Full-data gradient distance, class-wise averaged.
		syn := matcher.Sets[0]
		total := 0.0
		for c := 0; c < 10; c++ {
			realSub, synSub := client.OfClass(c), syn.OfClass(c)
			if realSub.Len() == 0 || synSub.Len() == 0 {
				continue
			}
			gD := classGrads(model, realSub)
			gS := classGrads(model, synSub)
			total += MatchDistance(gS, gD, cfg.Eps).Item()
		}
		return total
	}

	before := dist()
	ctx := fl.StepContext{Model: model, Client: client, Rng: rng, ClientID: 0}
	for i := 0; i < 5; i++ {
		matcher.MatchStep(ctx)
	}
	after := dist()
	if after >= before {
		t.Fatalf("matching did not reduce distance: %.4f → %.4f", before, after)
	}
	if matcher.DDTime <= 0 {
		t.Fatal("DDTime must accumulate")
	}
	if matcher.Counter.GradEvals == 0 {
		t.Fatal("Counter must accumulate")
	}
}

func classGrads(model *nn.Model, ds *data.Dataset) []*ad.Value {
	x, labels := ds.All()
	bound := model.Bind()
	loss := nn.CrossEntropy(bound.Forward(ad.Const(x)), nn.OneHot(labels, model.Classes))
	gs := ad.MustGrad(loss, bound.ParamVars())
	out := make([]*ad.Value, len(gs))
	for i, g := range gs {
		out[i] = ad.Const(g.Data.Clone())
	}
	return out
}

func TestMatcherSkipsEmptyClients(t *testing.T) {
	client := clientSet(t, 2, 12)
	rng := rand.New(rand.NewSource(13))
	matcher := NewMatcher(DefaultConfig(), data.NewCohort([]*data.Dataset{client, nil, data.NewDataset(8, 8, 1, 10)}), rng)
	if len(matcher.Sets) != 1 {
		t.Fatalf("expected 1 synthetic set, got %d", len(matcher.Sets))
	}
	// Hook on a client without a set must be a no-op.
	matcher.Hook()(fl.StepContext{ClientID: 5, Client: client, Rng: rng})
}

func TestAugmentDoublesPerClass(t *testing.T) {
	client := clientSet(t, 10, 16)
	cfg := DefaultConfig()
	cfg.Scale = 5 // 2 synthetic per class
	rng := rand.New(rand.NewSource(17))
	syn := InitSynthetic(client, cfg, rng)
	aug := Augment(syn, client, rng)
	if aug.Len() != 2*syn.Len() {
		t.Fatalf("augmented size %d, want %d", aug.Len(), 2*syn.Len())
	}
	sc, ac := syn.ClassCounts(), aug.ClassCounts()
	for c := range sc {
		if ac[c] != 2*sc[c] {
			t.Fatalf("class %d: %d vs %d", c, ac[c], sc[c])
		}
	}
}

func TestAugmentKeepsSyntheticAliases(t *testing.T) {
	// The augmented set must reference the live synthetic tensors so later
	// fine-tuning is reflected; real additions must be clones.
	client := clientSet(t, 4, 18)
	cfg := DefaultConfig()
	cfg.Scale = 4
	rng := rand.New(rand.NewSource(19))
	syn := InitSynthetic(client, cfg, rng)
	aug := Augment(syn, client, rng)
	found := false
	for _, ax := range aug.X {
		if ax == syn.X[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("Augment must alias synthetic samples")
	}
}

func TestFineTuneRunsAndCounts(t *testing.T) {
	client := clientSet(t, 6, 20)
	cfg := DefaultConfig()
	cfg.Scale = 6
	cfg.RealBatch = 8
	rng := rand.New(rand.NewSource(21))
	syn := InitSynthetic(client, cfg, rng)
	ft := FineTuneConfig{
		OuterSteps: 2, InnerSteps: 2, ModelLR: 0.05,
		Arch:  nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 4, Depth: 1},
		Match: cfg,
	}
	counter, err := FineTune(syn, client, ft, rng)
	if err != nil {
		t.Fatal(err)
	}
	if counter.GradEvals == 0 {
		t.Fatal("fine-tune must count gradient evaluations")
	}
}

func TestFineTuneValidates(t *testing.T) {
	client := clientSet(t, 2, 22)
	rng := rand.New(rand.NewSource(23))
	syn := InitSynthetic(client, DefaultConfig(), rng)
	bad := FineTuneConfig{OuterSteps: 1, InnerSteps: 0, ModelLR: 0.1,
		Arch: nn.DefaultConvNetConfig(8, 8, 1, 10), Match: DefaultConfig()}
	if _, err := FineTune(syn, client, bad, rng); err == nil {
		t.Fatal("expected validation error")
	}
	empty := data.NewDataset(8, 8, 1, 10)
	ok := FineTuneConfig{OuterSteps: 1, InnerSteps: 1, ModelLR: 0.1,
		Arch: nn.DefaultConvNetConfig(8, 8, 1, 10), Match: DefaultConfig()}
	if _, err := FineTune(empty, client, ok, rng); err == nil {
		t.Fatal("expected error on empty synthetic set")
	}
}

func TestDistributionMatchingReducesEmbeddingDistance(t *testing.T) {
	client := clientSet(t, 10, 60)
	cfg := DefaultConfig()
	cfg.Scale = 5
	cfg.LR = 0.05
	cfg.Objective = DistributionMatching
	rng := rand.New(rand.NewSource(61))
	matcher := NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 4, Depth: 1}
	model := nn.NewConvNet(arch, rng)

	embDist := func() float64 {
		syn := matcher.Sets[0]
		total := 0.0
		embLayer := len(model.Layers()) - 1
		for c := 0; c < 10; c++ {
			realSub, synSub := client.OfClass(c), syn.OfClass(c)
			if realSub.Len() == 0 || synSub.Len() == 0 {
				continue
			}
			xD, _ := realSub.All()
			xS, _ := synSub.All()
			embD := flatten2D(model.BindFrozen().ForwardUpTo(ad.Const(xD), embLayer))
			embS := flatten2D(model.BindFrozen().ForwardUpTo(ad.Const(xS), embLayer))
			total += distributionDistance(embS, embD).Item()
		}
		return total
	}

	before := embDist()
	ctx := fl.StepContext{Model: model, Client: client, Rng: rng, ClientID: 0}
	for i := 0; i < 8; i++ {
		matcher.MatchStep(ctx)
	}
	after := embDist()
	if after >= before {
		t.Fatalf("distribution matching did not reduce distance: %.4f → %.4f", before, after)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if GradientMatching.String() != "gradient-matching" ||
		DistributionMatching.String() != "distribution-matching" {
		t.Fatal("bad objective strings")
	}
	if Objective(9).String() != "unknown-objective" {
		t.Fatal("bad unknown objective string")
	}
}

func TestDistributionDistanceZeroForIdenticalBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	emb := ad.Const(tensor.Randn(rng, 1, 4, 6))
	if d := distributionDistance(emb, emb).Item(); d > 1e-12 {
		t.Fatalf("self distance = %g", d)
	}
}
