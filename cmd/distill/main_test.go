package main

import (
	"math"
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/experiments"
	"quickdrop/internal/nn"
)

// TestGradientDistance runs the command's gradient-distance report on a
// quick-scale client: a freshly initialised synthetic set is farther from
// the client's gradients than the client's own data is. (The distance of
// a set to itself is not 0: a column whose gradient vanishes counts 1.)
// The report runs on the model's step arena; a copy of the model without
// one, whose graphs live on the heap, must give the same bits.
func TestGradientDistance(t *testing.T) {
	sc, err := experiments.ScaleByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := experiments.NewSetup("mnistlike", 1, 0, sc)
	if err != nil {
		t.Fatal(err)
	}
	client := setup.Clients[0]
	cfg := distill.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	matcher := distill.NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	model := nn.NewConvNet(setup.Arch, rng)

	self := gradientDistance(model, client, client, cfg.Eps)
	syn := gradientDistance(model, client, matcher.Sets[0], cfg.Eps)
	if math.IsNaN(self) || math.IsNaN(syn) || !(self < syn) {
		t.Fatalf("distance to itself %g, to the synthetic set %g", self, syn)
	}

	heap := nn.NewConvNet(setup.Arch, rand.New(rand.NewSource(2)))
	heap.SetParams(model.ParamTensors())
	heap.DetachArena()
	for _, c := range []struct {
		name      string
		syn       *data.Dataset
		arenaDist float64
	}{{"itself", client, self}, {"the synthetic set", matcher.Sets[0], syn}} {
		if got := gradientDistance(heap, client, c.syn, cfg.Eps); math.Float64bits(got) != math.Float64bits(c.arenaDist) {
			t.Errorf("distance to %s: heap graphs %v, arena %v", c.name, got, c.arenaDist)
		}
	}
}
