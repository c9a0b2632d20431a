package serve

import (
	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
)

// Evaluator measures a request's forget-set and retain-set accuracy on
// a model, in two steps so that a test-set pass is paid once per model
// version rather than twice per ticket. Score makes the one pass over
// the held-out test set; Lookup answers a request from those scores,
// predicting only the part of its F-Set that lies outside the test set.
// The worker scores each published version once and answers every
// ticket's before and after pair — the values the run-ledger audit
// trail records for every deletion request — by lookup.
type Evaluator interface {
	// Score scores m on the held-out test set.
	Score(m *nn.Model) eval.Scores
	// Lookup returns req's F-Set and R-Set accuracy on m, where test
	// is Score(m).
	Lookup(m *nn.Model, test eval.Scores, req core.Request) (fset, rset float64)
}

// CohortEvaluator evaluates requests against a held-out test set and
// the cohort's original shards, mirroring how the experiment harnesses
// report the paper's F-Set / R-Set metric per request kind:
//
//   - class-level: F-Set = test samples of the class, R-Set = the rest;
//   - client-level: F-Set = the client's local data, R-Set = test set;
//   - sample-level: F-Set = the requested local samples, R-Set = test set.
type CohortEvaluator struct {
	Clients fl.ClientRegistry
	Test    *data.Dataset
}

// Split scores m on the test set and looks req up in the scores: one
// request's F-Set / R-Set in a single call.
func (e CohortEvaluator) Split(m *nn.Model, req core.Request) (fset, rset float64) {
	return e.Lookup(m, e.Score(m), req)
}

// Score implements Evaluator.
func (e CohortEvaluator) Score(m *nn.Model) eval.Scores {
	if m == nil || e.Test == nil {
		return eval.Scores{}
	}
	return eval.Score(m, e.Test)
}

// Lookup implements Evaluator. A class-level request is answered from
// test alone; client- and sample-level requests predict their F-Set,
// which the test set does not hold.
func (e CohortEvaluator) Lookup(m *nn.Model, test eval.Scores, req core.Request) (fset, rset float64) {
	if m == nil || e.Test == nil {
		return 0, 0
	}
	switch req.Kind {
	case core.ClassLevel:
		return test.Split(req.Class)
	case core.ClientLevel:
		return eval.Accuracy(m, e.shard(req.Client)), test.Accuracy()
	case core.SampleLevel:
		shard := e.shard(req.Client)
		var idx []int
		for _, s := range req.Samples {
			if s >= 0 && s < shard.Len() {
				idx = append(idx, s)
			}
		}
		return eval.Accuracy(m, shard.Subset(idx)), test.Accuracy()
	default:
		return 0, 0
	}
}

// shard returns a client's original data, or an empty set for indices
// outside the cohort (accuracy on an empty set reports 0).
func (e CohortEvaluator) shard(client int) *data.Dataset {
	if e.Clients == nil || client < 0 || client >= e.Clients.NumClients() {
		return data.NewDataset(e.Test.H, e.Test.W, e.Test.C, e.Test.Classes)
	}
	return e.Clients.Shard(client)
}
