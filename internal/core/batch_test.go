package core

import (
	"errors"
	"strings"
	"testing"

	"quickdrop/internal/eval"
)

// TestUnlearnBatchValidation covers the fast failure paths: before
// Train, empty batches, and the single-operation guard.
func TestUnlearnBatchValidation(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 3)
	sys, err := NewSystem(DefaultConfig(testArch()), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UnlearnBatch([]Request{{Kind: ClassLevel, Class: 1}}); err == nil {
		t.Fatal("expected error before Train")
	}
	if _, err := sys.UnlearnBatch(nil); err == nil {
		t.Fatal("expected error for empty batch")
	}

	// While one operation holds the slot, every other entry point is
	// rejected with ErrBusy instead of interleaving.
	if err := sys.acquire("test"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.UnlearnBatch([]Request{{Kind: ClassLevel, Class: 1}}); !errors.Is(err, ErrBusy) {
		t.Fatalf("UnlearnBatch under held guard: got %v, want ErrBusy", err)
	}
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("Unlearn under held guard: got %v, want ErrBusy", err)
	}
	if _, err := sys.Train(); !errors.Is(err, ErrBusy) {
		t.Fatalf("Train under held guard: got %v, want ErrBusy", err)
	}
	if _, err := sys.Recover(1); !errors.Is(err, ErrBusy) {
		t.Fatalf("Recover under held guard: got %v, want ErrBusy", err)
	}
	if _, err := sys.Relearn(Request{Kind: ClassLevel, Class: 1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("Relearn under held guard: got %v, want ErrBusy", err)
	}
	sys.release()
	if _, err := sys.Train(); err != nil {
		t.Fatalf("Train after release: %v", err)
	}
}

// TestUnlearnBatchSingleIsUnlearn pins the serving layer's numerical
// contract: a batch of one request produces bit-for-bit the same model
// as Unlearn on that request, because Unlearn IS a batch of one.
func TestUnlearnBatchSingleIsUnlearn(t *testing.T) {
	sysA, _ := trainedSystem(t)
	sysB, _ := trainedSystem(t)
	req := Request{Kind: ClassLevel, Class: 3}

	repA, err := sysA.Unlearn(req)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sysB.UnlearnBatch([]Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if len(repB.Requests) != 1 || len(repB.Rejected) != 0 {
		t.Fatalf("batch report: %d accepted, %d rejected; want 1, 0", len(repB.Requests), len(repB.Rejected))
	}
	if repA.Unlearn.Rounds != repB.Unlearn.Rounds || repA.Recover.Rounds != repB.Recover.Rounds ||
		repA.Unlearn.DataSize != repB.Unlearn.DataSize || repA.Recover.DataSize != repB.Recover.DataSize {
		t.Fatalf("cost mismatch: Unlearn=%+v vs batch %+v", repA, repB)
	}

	pa, pb := sysA.Model.CloneParams(), sysB.Model.CloneParams()
	for i := range pa {
		da, db := pa[i].Data(), pb[i].Data()
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("param %d[%d]: Unlearn=%v batch=%v — single-request batch is not bitwise identical", i, j, da[j], db[j])
			}
		}
	}
}

// TestUnlearnBatchCoalesced exercises a real coalesced pass: several
// requests share one SGA + recovery pass, intra-batch duplicates are
// rejected without poisoning the batch, and the forget ledger ends in
// the same state sequential submission would produce.
func TestUnlearnBatchCoalesced(t *testing.T) {
	sys, test := trainedSystem(t)
	reqs := []Request{
		{Kind: ClassLevel, Class: 1},
		{Kind: ClassLevel, Class: 2},
		{Kind: ClassLevel, Class: 1}, // duplicate inside the batch
	}
	br, err := sys.UnlearnBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Requests) != 2 {
		t.Fatalf("accepted %d requests, want 2", len(br.Requests))
	}
	if len(br.Rejected) != 1 {
		t.Fatalf("rejected %d requests, want 1", len(br.Rejected))
	}
	if br.Rejected[0].Index != 2 {
		t.Fatalf("rejected index %d, want 2", br.Rejected[0].Index)
	}
	if !strings.Contains(br.Rejected[0].Err.Error(), "already unlearned") {
		t.Fatalf("rejection reason %q, want already-unlearned", br.Rejected[0].Err)
	}
	// One pass for the whole batch: the unlearn cost counts the paper's
	// single SGA round, not one per request.
	if br.Unlearn.Rounds != sys.Cfg.Unlearn.Rounds {
		t.Fatalf("unlearn rounds %d, want %d (one shared pass)", br.Unlearn.Rounds, sys.Cfg.Unlearn.Rounds)
	}
	removed := sys.RemovedClasses()
	if len(removed) != 2 {
		t.Fatalf("removed classes %v, want {1, 2}", removed)
	}
	// Both targets must now be rejected as duplicates across batches too.
	for _, class := range []int{1, 2} {
		if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: class}); err == nil {
			t.Fatalf("re-unlearning class %d succeeded", class)
		}
	}
	// The model should have actually forgotten: both classes together
	// must sit well below the retained classes.
	f1, _ := eval.ClassSplit(sys.Model, test, 1)
	f2, r := eval.ClassSplit(sys.Model, test, 2)
	if f1 > r || f2 > r {
		t.Fatalf("forget-set accuracy (%.3f, %.3f) not below retain-set %.3f", f1, f2, r)
	}
}

// TestUnlearnBatchPhaseFailureRollsBackLedger pins the error
// contract: whether the SGA or the recovery phase fails, the forget
// ledger is restored to its pre-call state so the same requests can
// be resubmitted once the fault is fixed.
func TestUnlearnBatchPhaseFailureRollsBackLedger(t *testing.T) {
	sys, _ := trainedSystem(t)
	goodUnlearnLR, goodRecoverLR := sys.Cfg.Unlearn.LR, sys.Cfg.Recover.LR
	reqs := []Request{{Kind: ClassLevel, Class: 1}, {Kind: ClassLevel, Class: 2}}

	sys.Cfg.Unlearn.LR = -1 // SGA phase rejects its config
	if _, err := sys.UnlearnBatch(reqs); err == nil || !strings.Contains(err.Error(), "unlearning phase") {
		t.Fatalf("got %v, want an unlearning-phase error", err)
	}
	if got := sys.RemovedClasses(); len(got) != 0 {
		t.Fatalf("removed classes %v after SGA failure, want none", got)
	}

	sys.Cfg.Unlearn.LR = goodUnlearnLR
	sys.Cfg.Recover.LR = -1 // SGA succeeds, recovery rejects its config
	if _, err := sys.UnlearnBatch(reqs); err == nil || !strings.Contains(err.Error(), "recovery phase") {
		t.Fatalf("got %v, want a recovery-phase error", err)
	}
	if got := sys.RemovedClasses(); len(got) != 0 {
		t.Fatalf("removed classes %v after recovery failure, want none", got)
	}

	// Healed, the SAME batch must execute — no "already unlearned"
	// rejections left over from the failed attempts.
	sys.Cfg.Recover.LR = goodRecoverLR
	br, err := sys.UnlearnBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Requests) != 2 || len(br.Rejected) != 0 {
		t.Fatalf("accepted %d rejected %d after heal, want 2/0 — rollback must make the failure retryable",
			len(br.Requests), len(br.Rejected))
	}
}

// TestUnlearnBatchAllRejected checks that a batch with no executable
// request reports an error and leaves the ledger untouched.
func TestUnlearnBatchAllRejected(t *testing.T) {
	sys, _ := trainedSystem(t)
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 4}); err != nil {
		t.Fatal(err)
	}
	br, err := sys.UnlearnBatch([]Request{
		{Kind: ClassLevel, Class: 4},      // already unlearned
		{Kind: ClassLevel, Class: 99},     // out of range
		{Kind: ClientLevel, Client: -1},   // out of range
		{Kind: SampleLevel, Client: 1000}, // out of range
	})
	if err == nil {
		t.Fatal("expected error for all-rejected batch")
	}
	if len(br.Requests) != 0 || len(br.Rejected) != 4 {
		t.Fatalf("accepted %d rejected %d, want 0 and 4", len(br.Requests), len(br.Rejected))
	}
	if got := sys.RemovedClasses(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("removed classes %v changed by rejected batch", got)
	}
}
