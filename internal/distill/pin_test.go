package distill

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
)

// dmPin is the sha256 of a client's synthetic set after three
// distribution-matching steps on the benchmark substrate's ConvNet (8×8×1
// inputs, width 8, depth 2), on linux/amd64. The real embedding of each
// step runs with frozen parameters and a constant input, the synthetic
// one with a differentiable input, so the digest pins both forward paths
// of every conv and norm layer as they feed the pixels' descent. A change
// that is meant to move trajectories updates this constant and says so; a
// change that claims to keep them must leave it alone.
const dmPin = "70ab48eaa9d72fabe812c22b4d8e03ce18b01d728207c063e88d4fa09b120916"

func TestDistributionMatchingPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds and round differently.
		t.Skipf("pin recorded on amd64, running on %s", runtime.GOARCH)
	}
	client := clientSet(t, 10, 90)
	cfg := DefaultConfig()
	cfg.Scale = 5
	cfg.LR = 0.05
	cfg.Objective = DistributionMatching
	rng := rand.New(rand.NewSource(91))
	matcher := NewMatcher(cfg, data.NewCohort([]*data.Dataset{client}), rng)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rng)
	ctx := fl.StepContext{Model: model, Client: client, Rng: rng, ClientID: 0}
	for i := 0; i < 3; i++ {
		matcher.MatchStep(ctx)
	}
	h := sha256.New()
	syn := matcher.Sets[0]
	for i, x := range syn.X {
		if err := binary.Write(h, binary.LittleEndian, x.Data()); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, int64(syn.Y[i])); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dmPin {
		t.Fatalf("synthetic set after three distribution-matching steps hashes to\n\t%s\nwant\n\t%s", got, dmPin)
	}
}
