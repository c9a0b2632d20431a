package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
)

func testArch() nn.ConvNetConfig {
	return nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
}

func testClients(t *testing.T, n int, perClass int, seed int64) (*data.Cohort, *data.Dataset) {
	t.Helper()
	spec := data.MNISTLike(8, perClass)
	train, test := data.Generate(spec, seed)
	parts := data.PartitionIID(train, n, rand.New(rand.NewSource(seed+100)))
	return data.NewCohort(parts), test
}

// fixture trains one system per (seed, config) for the whole package
// and hands every test its own copy, restored from the trained system's
// saved state. A restored system's RNG restarts from cfg.Seed rather
// than continuing from where Train left it. Tests of SaveState/LoadState
// itself take fresh instead, so they compare Train's own output with
// its restore.
type fixture struct {
	setup func(t *testing.T) (*data.Cohort, *data.Dataset, Config)
	once  sync.Once
	state []byte
	err   error
}

// train builds and trains a new system from the fixture's setup.
func (f *fixture) train(t *testing.T) (*System, *data.Dataset, error) {
	clients, test, cfg := f.setup(t)
	sys, err := NewSystem(cfg, clients)
	if err == nil {
		_, err = sys.Train()
	}
	return sys, test, err
}

// fresh returns a newly trained system that has not been through
// SaveState/LoadState, and the held-out test set.
func (f *fixture) fresh(t *testing.T) (*System, *data.Dataset) {
	t.Helper()
	sys, test, err := f.train(t)
	if err != nil {
		t.Fatal(err)
	}
	return sys, test
}

// system returns a fresh copy of the fixture's trained system, training
// it on first use, and the held-out test set.
func (f *fixture) system(t *testing.T) (*System, *data.Dataset) {
	t.Helper()
	f.once.Do(func() {
		sys, _, err := f.train(t)
		var buf bytes.Buffer
		if err == nil {
			err = sys.SaveState(&buf)
		}
		f.state, f.err = buf.Bytes(), err
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	clients, test, cfg := f.setup(t)
	sys, err := NewSystem(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadState(bytes.NewReader(f.state)); err != nil {
		t.Fatal(err)
	}
	return sys, test
}

// trained is the package's class- and client-level fixture: 4 clients,
// 12 samples per class.
var trained = &fixture{setup: func(t *testing.T) (*data.Cohort, *data.Dataset, Config) {
	clients, test := testClients(t, 4, 12, 7)
	cfg := DefaultConfig(testArch())
	cfg.Seed = 7
	cfg.Distill.Scale = 3 // keep a few synthetic samples per class on tiny shards
	return clients, test, cfg
}}

// trainedSystem returns a copy of the trained fixture.
func trainedSystem(t *testing.T) (*System, *data.Dataset) {
	t.Helper()
	return trained.system(t)
}

func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig(testArch())
	if _, err := NewSystem(cfg, nil); err == nil {
		t.Fatal("expected error for no clients")
	}
	if _, err := NewSystem(cfg, data.NewCohort([]*data.Dataset{data.NewDataset(8, 8, 1, 10)})); err == nil {
		t.Fatal("expected error for all-empty clients")
	}
	bad := cfg
	bad.Distill.Scale = 0
	clients, _ := testClients(t, 2, 4, 1)
	if _, err := NewSystem(bad, clients); err == nil {
		t.Fatal("expected error for bad distill config")
	}
}

func TestUnlearnBeforeTrainFails(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 2)
	sys, err := NewSystem(DefaultConfig(testArch()), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 1}); err == nil {
		t.Fatal("expected error before Train")
	}
	if _, err := sys.Relearn(Request{Kind: ClassLevel, Class: 1}); err == nil {
		t.Fatal("expected error before Train")
	}
}

func TestDoubleTrainFails(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := sys.Train(); err == nil {
		t.Fatal("expected error on second Train")
	}
}

// The headline behaviour (paper Fig. 2 / Table 2): class unlearning
// collapses F-Set accuracy while recovery restores the R-Set, then
// relearning restores the class.
func TestClassUnlearnRecoverRelearn(t *testing.T) {
	sys, test := trainedSystem(t)
	target := 3
	fBefore, rBefore := eval.ClassSplit(sys.Model, test, target)
	if fBefore < 0.5 || rBefore < 0.5 {
		t.Fatalf("model undertrained: F=%.2f R=%.2f", fBefore, rBefore)
	}

	rep, err := sys.Unlearn(Request{Kind: ClassLevel, Class: target})
	if err != nil {
		t.Fatal(err)
	}
	fAfter, rAfter := eval.ClassSplit(sys.Model, test, target)
	if fAfter > 0.25 {
		t.Fatalf("F-Set accuracy after unlearning = %.2f, want ≈0 (before %.2f)", fAfter, fBefore)
	}
	if rAfter < rBefore-0.3 {
		t.Fatalf("R-Set accuracy collapsed: %.2f → %.2f", rBefore, rAfter)
	}
	if rep.Unlearn.Rounds != 1 || rep.Recover.Rounds != 2 {
		t.Fatalf("unexpected phase rounds: %+v", rep)
	}
	if rep.Unlearn.DataSize == 0 || rep.Recover.DataSize == 0 {
		t.Fatalf("data sizes missing: %+v", rep)
	}
	// Synthetic volume must be far below the original (the whole point).
	if rep.Unlearn.DataSize >= sys.Clients.Shard(0).Len()*sys.Clients.NumClients()/2 {
		t.Fatalf("unlearning touched %d samples — not compressed", rep.Unlearn.DataSize)
	}

	// Relearn restores the class.
	rel, err := sys.Relearn(Request{Kind: ClassLevel, Class: target})
	if err != nil {
		t.Fatal(err)
	}
	fRe, _ := eval.ClassSplit(sys.Model, test, target)
	if fRe < 0.4 {
		t.Fatalf("relearning failed: F-Set %.2f", fRe)
	}
	if rel.Total.WallTime <= 0 {
		t.Fatal("relearn cost missing")
	}
}

func TestClientUnlearn(t *testing.T) {
	sys, test := trainedSystem(t)
	target := 1
	rep, err := sys.Unlearn(Request{Kind: ClientLevel, Client: target})
	if err != nil {
		t.Fatal(err)
	}
	// With IID data the retained knowledge covers the departed client
	// (paper Table 4, IID column): R-Set accuracy must stay reasonable.
	_, r := eval.SubsetSplit(sys.Model, sys.Clients.Shard(target), test)
	if r < 0.4 {
		t.Fatalf("R-Set accuracy %.2f after client unlearning", r)
	}
	if rep.Total.WallTime <= 0 {
		t.Fatal("cost missing")
	}
	// The client must not participate in later recovery phases.
	if _, err := sys.Unlearn(Request{Kind: ClientLevel, Client: target}); err == nil {
		t.Fatal("double client unlearn must fail")
	}
}

func TestSequentialClassRequests(t *testing.T) {
	sys, test := trainedSystem(t)
	for _, target := range []int{2, 5} {
		if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: target}); err != nil {
			t.Fatal(err)
		}
	}
	f2, _ := eval.ClassSplit(sys.Model, test, 2)
	f5, _ := eval.ClassSplit(sys.Model, test, 5)
	if f2 > 0.3 || f5 > 0.3 {
		t.Fatalf("sequential unlearning leaked: class2=%.2f class5=%.2f", f2, f5)
	}
	removed := sys.RemovedClasses()
	if len(removed) != 2 {
		t.Fatalf("RemovedClasses = %v", removed)
	}
	// Remaining classes still work on average.
	sum := 0.0
	n := 0
	acc, count := eval.PerClassAccuracy(sys.Model, test)
	for c := 0; c < 10; c++ {
		if c == 2 || c == 5 || count[c] == 0 {
			continue
		}
		sum += acc[c]
		n++
	}
	if sum/float64(n) < 0.45 {
		t.Fatalf("non-target accuracy %.2f after sequential requests", sum/float64(n))
	}
}

func TestUnlearnErrors(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 99}); err == nil {
		t.Fatal("expected out-of-range class error")
	}
	if _, err := sys.Unlearn(Request{Kind: ClientLevel, Client: -1}); err == nil {
		t.Fatal("expected out-of-range client error")
	}
	if _, err := sys.Unlearn(Request{}); err == nil {
		t.Fatal("expected invalid-kind error")
	}
	if _, err := sys.Relearn(Request{Kind: ClassLevel, Class: 4}); err == nil {
		t.Fatal("relearn of never-unlearned class must fail")
	}
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 3}); err == nil {
		t.Fatal("double unlearn must fail")
	}
}

func TestSyntheticSizesFollowScale(t *testing.T) {
	sys, _ := trainedSystem(t)
	for i := 0; i < sys.Clients.NumClients(); i++ {
		c := sys.Clients.Shard(i)
		syn := sys.Synthetic(i)
		if syn == nil {
			t.Fatalf("client %d has no synthetic set", i)
		}
		rc, sc := c.ClassCounts(), syn.ClassCounts()
		for class := range rc {
			if rc[class] == 0 {
				continue
			}
			want := (rc[class] + int(sys.Cfg.Distill.Scale) - 1) / int(sys.Cfg.Distill.Scale)
			if sc[class] != want {
				t.Fatalf("client %d class %d: %d synthetic, want %d", i, class, sc[class], want)
			}
		}
	}
}

func TestRequestStrings(t *testing.T) {
	if (Request{Kind: ClassLevel, Class: 3}).String() != "unlearn class 3" {
		t.Fatal("bad class request string")
	}
	if (Request{Kind: ClientLevel, Client: 2}).String() != "unlearn client 2" {
		t.Fatal("bad client request string")
	}
	if (Request{}).String() != "invalid request" {
		t.Fatal("bad invalid request string")
	}
	if ClassLevel.String() != "class-level" || ClientLevel.String() != "client-level" {
		t.Fatal("bad kind strings")
	}
	if RequestKind(9).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}
