package mia

import (
	"math"
	"math/rand"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
)

// overfitModel trains a model hard on a small training set so membership
// signal exists.
func overfitModel(t *testing.T) (*nn.Model, *data.Dataset, *data.Dataset) {
	t.Helper()
	spec := data.MNISTLike(8, 8)
	train, test := data.Generate(spec, 1)
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	model := nn.NewConvNet(arch, rand.New(rand.NewSource(2)))
	if _, err := fl.RunPhase(model, []*data.Dataset{train}, fl.PhaseConfig{
		Rounds: 20, LocalSteps: 5, BatchSize: 16, LR: 0.1,
	}, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	return model, train, test
}

func TestExtractFeatures(t *testing.T) {
	model, train, _ := overfitModel(t)
	fs := Extract(model, train)
	if len(fs) != train.Len() {
		t.Fatalf("got %d features", len(fs))
	}
	for _, f := range fs {
		if f.Loss < 0 || math.IsNaN(f.Loss) {
			t.Fatalf("bad loss %g", f.Loss)
		}
		if f.Confidence <= 0 || f.Confidence > 1 {
			t.Fatalf("bad confidence %g", f.Confidence)
		}
		if f.Entropy < 0 || f.Entropy > math.Log(10)+1e-9 {
			t.Fatalf("bad entropy %g", f.Entropy)
		}
	}
}

func TestExtractEmpty(t *testing.T) {
	model, _, _ := overfitModel(t)
	if fs := Extract(model, data.NewDataset(8, 8, 1, 10)); fs != nil {
		t.Fatal("empty dataset must give nil features")
	}
}

func TestThresholdAttackSeparatesMembers(t *testing.T) {
	model, train, test := overfitModel(t)
	attack, err := TrainThreshold(model, train, test)
	if err != nil {
		t.Fatal(err)
	}
	memberRate := attack.MemberRate(model, train)
	nonMemberRate := attack.MemberRate(model, test)
	if memberRate <= nonMemberRate {
		t.Fatalf("attack is no better than chance: members %.2f vs non-members %.2f", memberRate, nonMemberRate)
	}
}

func TestThresholdAttackValidates(t *testing.T) {
	model, train, _ := overfitModel(t)
	empty := data.NewDataset(8, 8, 1, 10)
	if _, err := TrainThreshold(model, empty, train); err == nil {
		t.Fatal("expected error for empty members")
	}
	if _, err := TrainThreshold(model, train, empty); err == nil {
		t.Fatal("expected error for empty non-members")
	}
}

func TestMemberRateEmptyDataset(t *testing.T) {
	model, train, test := overfitModel(t)
	attack, err := TrainThreshold(model, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if r := attack.MemberRate(model, data.NewDataset(8, 8, 1, 10)); r != 0 {
		t.Fatalf("member rate on empty set = %g", r)
	}
}

func TestAUCAboveChanceForOverfitModel(t *testing.T) {
	model, train, test := overfitModel(t)
	auc, err := AUC(model, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if auc <= 0.55 {
		t.Fatalf("AUC %.2f — no membership signal", auc)
	}
	if auc > 1 {
		t.Fatalf("AUC %.2f out of range", auc)
	}
}

func TestAUCValidates(t *testing.T) {
	model, train, _ := overfitModel(t)
	empty := data.NewDataset(8, 8, 1, 10)
	if _, err := AUC(model, empty, train); err == nil {
		t.Fatal("expected error")
	}
}
