package core

import (
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/mia"
)

// sampled is the sample-level fixture: 3 clients with sub-class
// grouping enabled.
var sampled = &fixture{setup: func(t *testing.T) (*data.Cohort, *data.Dataset, Config) {
	clients, test := testClients(t, 3, 16, 21)
	cfg := DefaultConfig(testArch())
	cfg.Seed = 21
	cfg.Distill.Scale = 2
	cfg.Distill.Groups = 3
	return clients, test, cfg
}}

// sampleSystem returns a copy of the sample-level fixture.
func sampleSystem(t *testing.T) (*System, *data.Dataset) {
	t.Helper()
	return sampled.system(t)
}

func TestSampleLevelUnlearnAndRelearn(t *testing.T) {
	sys, test := sampleSystem(t)
	client := 1
	// Forget the first few samples of the client.
	req := Request{Kind: SampleLevel, Client: client, Samples: []int{0, 1, 2}}
	accBefore := eval.Accuracy(sys.Model, test)

	rep, err := sys.Unlearn(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unlearn.DataSize == 0 {
		t.Fatal("no synthetic data unlearned")
	}
	// The covered groups are expanded: the tracker must now hold at least
	// the requested samples.
	removed := sys.forget.RemovedSamples(client)
	for _, s := range req.Samples {
		if !removed[s] {
			t.Fatalf("sample %d not marked removed", s)
		}
	}
	// Overall model quality must survive unlearning a few samples.
	if acc := eval.Accuracy(sys.Model, test); acc < accBefore-0.35 {
		t.Fatalf("accuracy collapsed: %.2f → %.2f", accBefore, acc)
	}

	// Double-unlearn of the same samples must fail.
	if _, err := sys.Unlearn(req); err == nil {
		t.Fatal("double sample unlearn must fail")
	}

	// Relearning restores the groups.
	if _, err := sys.Relearn(req); err != nil {
		t.Fatal(err)
	}
	if len(sys.forget.RemovedSamples(client)) != 0 {
		t.Fatal("relearn must clear removed samples")
	}
	// And can be unlearned again.
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
}

func TestSampleLevelValidation(t *testing.T) {
	sys, _ := sampleSystem(t)
	cases := []Request{
		{Kind: SampleLevel, Client: 99, Samples: []int{0}},
		{Kind: SampleLevel, Client: 0, Samples: nil},
		{Kind: SampleLevel, Client: 0, Samples: []int{100000}},
	}
	for i, req := range cases {
		if _, err := sys.Unlearn(req); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	// Relearn of never-unlearned samples must fail.
	if _, err := sys.Relearn(Request{Kind: SampleLevel, Client: 0, Samples: []int{0}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSampleLevelExpandsToGroups(t *testing.T) {
	sys, _ := sampleSystem(t)
	client := 0
	req := Request{Kind: SampleLevel, Client: client, Samples: []int{0}}
	groups, expanded, err := sys.resolveSampleGroups(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("one sample must map to one group, got %d", len(groups))
	}
	grouping := sys.Matcher.Groupings[client]
	if len(expanded) != len(grouping.Real[groups[0]]) {
		t.Fatalf("expansion %d != group size %d", len(expanded), len(grouping.Real[groups[0]]))
	}
	found := false
	for _, s := range expanded {
		if s == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("expansion must include the requested sample")
	}
}

func TestSampleLevelRecoveryExcludesForgottenGroups(t *testing.T) {
	sys, _ := sampleSystem(t)
	client := 2
	req := Request{Kind: SampleLevel, Client: client, Samples: []int{0, 3}}
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	// The client's active synthetic subset must be smaller than the full
	// synthetic set, with the removed groups' samples excluded.
	syn := sys.Synthetic(client)
	active := sys.activeSubset(client, syn)
	if active.Len() >= syn.Len() {
		t.Fatalf("active %d vs total %d — removed groups not excluded", active.Len(), syn.Len())
	}
}

func TestSampleLevelMIAMemberRateDrops(t *testing.T) {
	sys, test := sampleSystem(t)
	client := 0
	clientData := sys.Clients.Shard(client)
	// Forget half the client's samples.
	var samples []int
	for i := 0; i < clientData.Len()/2; i++ {
		samples = append(samples, i)
	}
	req := Request{Kind: SampleLevel, Client: client, Samples: samples}
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	// Attack calibrated on retained members vs test non-members.
	removed := sys.forget.RemovedSamples(client)
	retained := clientData.WithoutIndices(removed)
	forgotten := clientData.Subset(keys(removed))
	attack, err := mia.TrainThreshold(sys.Model, retained, test)
	if err != nil {
		t.Fatal(err)
	}
	fRate := attack.MemberRate(sys.Model, forgotten)
	rRate := attack.MemberRate(sys.Model, retained)
	if fRate > rRate {
		t.Fatalf("forgotten samples look more like members (%.2f) than retained (%.2f)", fRate, rRate)
	}
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSampleLevelWithoutGroupsStillWorks(t *testing.T) {
	// Groups=1 (paper default): sample-level requests expand to the whole
	// class subset of that client — coarse but valid.
	clients, _ := testClients(t, 2, 8, 26)
	cfg := DefaultConfig(testArch())
	cfg.Distill.Scale = 2
	sys, err := NewSystem(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: SampleLevel, Client: 0, Samples: []int{0}}
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	// The expansion covers the whole class-group of sample 0.
	grouping := sys.Matcher.Groupings[0]
	key, ok := grouping.GroupOf(0)
	if !ok {
		t.Fatal("sample 0 must be in a group")
	}
	if got := len(sys.forget.RemovedSamples(0)); got != len(grouping.Real[key]) {
		t.Fatalf("removed %d samples, want the full group %d", got, len(grouping.Real[key]))
	}
}
