package baselines

import (
	"math/rand"
	"testing"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
)

func testArch() nn.ConvNetConfig {
	return nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
}

func testClients(t *testing.T, n, perClass int, seed int64) (*data.Cohort, *data.Dataset) {
	t.Helper()
	spec := data.MNISTLike(8, perClass)
	train, test := data.Generate(spec, seed)
	parts := data.PartitionIID(train, n, rand.New(rand.NewSource(seed+50)))
	return data.NewCohort(parts), test
}

func testConfig() Config {
	cfg := DefaultConfig(testArch())
	cfg.Train.Rounds = 12
	cfg.RetrainRounds = 12
	return cfg
}

func TestCapabilitiesMatchTable1(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 1)
	cfg := testConfig()
	mkAll := func() []Method {
		r, _ := NewRetrainOr(cfg, clients)
		s, _ := NewSGAOr(cfg, clients)
		f, _ := NewFedEraser(cfg, clients)
		m, _ := NewFUMP(cfg, clients)
		u, _ := NewS2U(cfg, clients)
		return []Method{r, s, f, m, u}
	}
	want := map[string]Capabilities{
		"Retrain-Or": {ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: true},
		"SGA-Or":     {ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: true},
		"FedEraser":  {ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: false},
		"FU-MP":      {ClassLevel: true, ClientLevel: false, Relearn: false, StorageEfficient: true},
		"S2U":        {ClassLevel: false, ClientLevel: true, Relearn: true, StorageEfficient: true},
	}
	for _, m := range mkAll() {
		got := m.Capabilities()
		w := want[m.Name()]
		if got.ClassLevel != w.ClassLevel || got.ClientLevel != w.ClientLevel ||
			got.Relearn != w.Relearn || got.StorageEfficient != w.StorageEfficient {
			t.Fatalf("%s capabilities %+v do not match Table 1 (%+v)", m.Name(), got, w)
		}
		if got.ComputeEfficiency == "" {
			t.Fatalf("%s missing compute efficiency rating", m.Name())
		}
	}
}

func TestUnlearnBeforePrepareFails(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 2)
	m, err := NewSGAOr(testConfig(), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Unlearn(core.Request{Kind: core.ClassLevel, Class: 1}); err == nil {
		t.Fatal("expected error before Prepare")
	}
}

func TestUnsupportedKindsRejected(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 3)
	cfg := testConfig()
	cfg.Train.Rounds = 1
	fump, _ := NewFUMP(cfg, clients)
	s2u, _ := NewS2U(cfg, clients)
	for _, m := range []Method{fump, s2u} {
		if err := m.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fump.Unlearn(core.Request{Kind: core.ClientLevel, Client: 0}); err == nil {
		t.Fatal("FU-MP must reject client-level requests")
	}
	if _, err := fump.Relearn(core.Request{Kind: core.ClassLevel, Class: 1}); err == nil {
		t.Fatal("FU-MP must reject relearning")
	}
	if _, err := s2u.Unlearn(core.Request{Kind: core.ClassLevel, Class: 0}); err == nil {
		t.Fatal("S2U must reject class-level requests")
	}
}

// Class-level unlearning across the class-capable baselines: F-Set must
// collapse, R-Set must survive (Table 2 behaviour).
func TestClassUnlearningAcrossMethods(t *testing.T) {
	clients, test := testClients(t, 4, 12, 4)
	cfg := testConfig()
	target := 6

	methods := map[string]Method{}
	r, _ := NewRetrainOr(cfg, clients)
	s, _ := NewSGAOr(cfg, clients)
	f, _ := NewFedEraser(cfg, clients)
	mp, _ := NewFUMP(cfg, clients)
	methods["Retrain-Or"] = r
	methods["SGA-Or"] = s
	methods["FedEraser"] = f
	methods["FU-MP"] = mp

	for name, m := range methods {
		t.Run(name, func(t *testing.T) {
			if err := m.Prepare(); err != nil {
				t.Fatal(err)
			}
			_, rBefore := eval.ClassSplit(m.Model(), test, target)
			if rBefore < 0.5 {
				t.Fatalf("%s undertrained: R=%.2f", name, rBefore)
			}
			res, err := m.Unlearn(core.Request{Kind: core.ClassLevel, Class: target})
			if err != nil {
				t.Fatal(err)
			}
			fAfter, rAfter := eval.ClassSplit(m.Model(), test, target)
			if fAfter > 0.35 {
				t.Fatalf("%s F-Set %.2f after unlearning", name, fAfter)
			}
			if rAfter < 0.4 {
				t.Fatalf("%s R-Set %.2f after recovery", name, rAfter)
			}
			if res.Total.WallTime <= 0 {
				t.Fatalf("%s missing cost accounting", name)
			}
		})
	}
}

func TestSGAOrUnlearnUsesOriginalDataVolume(t *testing.T) {
	clients, _ := testClients(t, 4, 12, 5)
	cfg := testConfig()
	m, _ := NewSGAOr(cfg, clients)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := m.Unlearn(core.Request{Kind: core.ClassLevel, Class: 2})
	if err != nil {
		t.Fatal(err)
	}
	// F-Set is all original samples of class 2 (12), R-Set all others (108).
	if res.Unlearn.DataSize != 12 || res.Recover.DataSize != 108 {
		t.Fatalf("data sizes = %d/%d, want 12/108", res.Unlearn.DataSize, res.Recover.DataSize)
	}
}

func TestFedEraserStorageGrowsWithRounds(t *testing.T) {
	clients, _ := testClients(t, 3, 6, 6)
	short := testConfig()
	short.Train.Rounds = 2
	long := testConfig()
	long.Train.Rounds = 4

	fShort, _ := NewFedEraser(short, clients)
	fLong, _ := NewFedEraser(long, clients)
	if err := fShort.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := fLong.Prepare(); err != nil {
		t.Fatal(err)
	}
	if fLong.StoredFloats != 2*fShort.StoredFloats {
		t.Fatalf("storage must scale linearly with rounds: %d vs %d", fShort.StoredFloats, fLong.StoredFloats)
	}
	// Storage = rounds × clients × model params.
	model := fShort.Model()
	want := 2 * 3 * model.NumParams()
	if fShort.StoredFloats != want {
		t.Fatalf("StoredFloats = %d, want %d", fShort.StoredFloats, want)
	}
}

func TestFedEraserIntervalReducesStorage(t *testing.T) {
	clients, _ := testClients(t, 2, 6, 7)
	cfg := testConfig()
	cfg.Train.Rounds = 4
	f, _ := NewFedEraser(cfg, clients)
	f.Interval = 2
	if err := f.Prepare(); err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * f.Model().NumParams() // rounds 0 and 2 recorded
	if f.StoredFloats != want {
		t.Fatalf("StoredFloats = %d, want %d", f.StoredFloats, want)
	}
}

func TestS2UClientUnlearning(t *testing.T) {
	clients, test := testClients(t, 4, 12, 8)
	cfg := testConfig()
	m, _ := NewS2U(cfg, clients)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	accBefore := eval.Accuracy(m.Model(), test)
	res, err := m.Unlearn(core.Request{Kind: core.ClientLevel, Client: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Integrated unlearning must not destroy the model (IID data: the
	// remaining clients cover the knowledge).
	accAfter := eval.Accuracy(m.Model(), test)
	if accAfter < accBefore-0.3 {
		t.Fatalf("S2U wrecked the model: %.2f → %.2f", accBefore, accAfter)
	}
	if res.Unlearn.Rounds != m.Rounds {
		t.Fatalf("rounds = %d, want %d", res.Unlearn.Rounds, m.Rounds)
	}
	if _, err := m.Unlearn(core.Request{Kind: core.ClientLevel, Client: 1}); err == nil {
		t.Fatal("double unlearn must fail")
	}
}

func TestRelearnRestoresClass(t *testing.T) {
	clients, test := testClients(t, 4, 12, 9)
	cfg := testConfig()
	m, _ := NewSGAOr(cfg, clients)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	target := 4
	if _, err := m.Unlearn(core.Request{Kind: core.ClassLevel, Class: target}); err != nil {
		t.Fatal(err)
	}
	fMid, _ := eval.ClassSplit(m.Model(), test, target)
	if _, err := m.Relearn(core.Request{Kind: core.ClassLevel, Class: target}); err != nil {
		t.Fatal(err)
	}
	fAfter, _ := eval.ClassSplit(m.Model(), test, target)
	if fAfter <= fMid || fAfter < 0.4 {
		t.Fatalf("relearning failed: %.2f → %.2f", fMid, fAfter)
	}
	// Relearning something never unlearned must fail.
	if _, err := m.Relearn(core.Request{Kind: core.ClassLevel, Class: 9}); err == nil {
		t.Fatal("expected error")
	}
}

func TestFUMPPrunesChannels(t *testing.T) {
	clients, _ := testClients(t, 2, 8, 10)
	cfg := testConfig()
	cfg.Train.Rounds = 4
	m, _ := NewFUMP(cfg, clients)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Unlearn(core.Request{Kind: core.ClassLevel, Class: 0}); err != nil {
		t.Fatal(err)
	}
	// At least one filter column of the last conv must be zeroed... before
	// recovery retrains them; instead check the pruning helper directly.
	m2, _ := NewFUMP(cfg, clients)
	if err := m2.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.pruneClassChannels(0); err != nil {
		t.Fatal(err)
	}
	_, _, conv := m2.lastConvBlock()
	w := conv.Params()[0].Data
	zeroCols := 0
	for fcol := 0; fcol < conv.Filters; fcol++ {
		allZero := true
		for r := 0; r < w.Dim(0); r++ {
			if w.At(r, fcol) != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeroCols++
		}
	}
	wantPruned := int(m2.PruneFraction * float64(conv.Filters))
	if zeroCols < wantPruned {
		t.Fatalf("pruned %d columns, want ≥ %d", zeroCols, wantPruned)
	}
}

func TestTFIDFScoresFavorDiscriminativeChannel(t *testing.T) {
	// Channel 0 fires only for class 0; channel 1 fires everywhere.
	mean := [][]float64{
		{10, 5},
		{0, 5},
		{0, 5},
	}
	scores := tfidfScores(mean, 0)
	if scores[0] <= scores[1] {
		t.Fatalf("discriminative channel must score higher: %v", scores)
	}
}

func TestArgsortDesc(t *testing.T) {
	got := argsortDesc([]float64{1, 3, 2})
	if got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("argsortDesc = %v", got)
	}
}

func TestSampleLevelOnOriginalDataMethods(t *testing.T) {
	clients, test := testClients(t, 3, 12, 11)
	cfg := testConfig()
	req := core.Request{Kind: core.SampleLevel, Client: 0, Samples: []int{0, 1, 2}}

	for _, name := range []string{"SGA-Or", "Retrain-Or", "FedEraser"} {
		t.Run(name, func(t *testing.T) {
			var m Method
			var err error
			switch name {
			case "SGA-Or":
				m, err = NewSGAOr(cfg, clients)
			case "Retrain-Or":
				m, err = NewRetrainOr(cfg, clients)
			case "FedEraser":
				m, err = NewFedEraser(cfg, clients)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !m.Capabilities().SampleLevel {
				t.Fatalf("%s must support sample-level", name)
			}
			if err := m.Prepare(); err != nil {
				t.Fatal(err)
			}
			res, err := m.Unlearn(req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.WallTime <= 0 {
				t.Fatal("missing cost")
			}
			// Model quality survives removing 3 samples.
			if acc := eval.Accuracy(m.Model(), test); acc < 0.35 {
				t.Fatalf("accuracy %.2f after sample unlearning", acc)
			}
			// Double unlearn of the same samples fails.
			if _, err := m.Unlearn(req); err == nil {
				t.Fatal("double sample unlearn must fail")
			}
			// Relearn restores.
			if _, err := m.Relearn(req); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSampleLevelUnsupportedMethods(t *testing.T) {
	clients, _ := testClients(t, 2, 6, 12)
	cfg := testConfig()
	cfg.Train.Rounds = 1
	req := core.Request{Kind: core.SampleLevel, Client: 0, Samples: []int{0}}
	fump, _ := NewFUMP(cfg, clients)
	s2u, _ := NewS2U(cfg, clients)
	for _, m := range []Method{fump, s2u} {
		if err := m.Prepare(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Unlearn(req); err == nil {
			t.Fatalf("%s must reject sample-level requests", m.Name())
		}
	}
}
