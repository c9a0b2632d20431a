package core

import (
	"errors"
	"fmt"
	"math"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/optim"
)

// ErrBusy is returned when an operation is submitted while another
// pipeline operation (Train, Unlearn, UnlearnBatch, Recover, Relearn,
// LoadState) is still running. A System mutates one global model and
// one shared RNG stream; interleaving two operations would corrupt
// both, so the contract is made explicit instead of implicit: callers
// that need concurrency serialize requests through a queue (see
// internal/serve) and retry on this error.
var ErrBusy = errors.New("core: another operation is already running on this System")

// acquire claims the System's single-operation slot.
func (s *System) acquire(op string) error {
	if !s.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("core: %s rejected: %w", op, ErrBusy)
	}
	return nil
}

// release frees the single-operation slot.
func (s *System) release() { s.busy.Store(false) }

// RequestError pairs a request with the reason it could not execute.
type RequestError struct {
	// Index is the request's position in the submitted batch, so
	// callers holding per-request state (the serving layer's tickets)
	// can attribute the rejection even when the batch holds duplicates.
	Index   int
	Request Request
	Err     error
}

// BatchReport summarizes one coalesced unlearning pass: which requests
// executed, which were rejected at resolution time, and the shared SGA
// and recovery costs amortized across the whole batch.
type BatchReport struct {
	// Requests are the accepted requests in execution order.
	Requests []Request
	// Rejected are the requests that failed resolution (out of range,
	// already unlearned, no matching synthetic data); they did not
	// poison the rest of the batch.
	Rejected []RequestError
	// Unlearn is the cost of the single SGA pass over the merged
	// forget shards of every accepted request.
	Unlearn eval.Cost
	// Recover is the cost of the single recovery pass shared by the
	// whole batch.
	Recover eval.Cost
	// Total is the combined cost.
	Total eval.Cost
}

// UnlearnBatch executes steps 3 and 4 for a whole batch of requests in
// one pass: the per-client forget shards of every accepted request are
// merged and erased by a single SGA phase, then a single recovery
// phase runs on the remaining synthetic data. This amortizes recovery
// — the expensive stage — across the batch exactly as the paper
// amortizes distillation across training, and is the entry point the
// quickdropd request coalescer drives.
//
// Requests resolve sequentially against the evolving forget state, so
// a duplicate inside the batch is rejected like a duplicate across
// batches, and a client-level request excludes classes a preceding
// class-level request already claimed. A batch of one request is
// bit-for-bit identical to Unlearn on that request.
//
// Error contract: whenever UnlearnBatch returns a non-nil error — a
// wholly-rejected batch, an SGA-phase failure, or a recovery-phase
// failure — the forget ledger is restored to its pre-call state, so
// the same requests can be resubmitted. The MODEL, however, may have
// been left mid-phase (partially ascended or unrecovered); callers
// that keep serving afterwards must restore its parameters from a
// known-good copy (internal/serve rewinds to the last published
// snapshot) before running another operation.
func (s *System) UnlearnBatch(reqs []Request) (BatchReport, error) {
	if err := s.acquire("UnlearnBatch"); err != nil {
		return BatchReport{}, err
	}
	defer s.release()
	return s.unlearnBatchLocked(reqs)
}

func (s *System) unlearnBatchLocked(reqs []Request) (BatchReport, error) {
	br := BatchReport{}
	if !s.trained {
		return br, fmt.Errorf("core: Unlearn before Train")
	}
	if len(reqs) == 0 {
		return br, fmt.Errorf("core: empty request batch")
	}

	// Resolution pass: collect each request's forget shards against the
	// current forget state and mark it removed before resolving the
	// next, so intra-batch interactions (duplicates, class/client
	// overlap) behave exactly like sequential submission.
	merged := make([]*data.Dataset, s.Clients.NumClients())
	for ri, req := range reqs {
		shards, err := s.resolveOne(req)
		if err != nil {
			br.Rejected = append(br.Rejected, RequestError{Index: ri, Request: req, Err: err})
			continue
		}
		for i, sh := range shards {
			switch {
			case sh == nil:
			case merged[i] == nil:
				merged[i] = sh
			default:
				merged[i] = data.Merge(merged[i], sh)
			}
		}
		br.Requests = append(br.Requests, req)
		s.Cfg.Telemetry.Request(int(req.Kind) - 1)
	}
	if len(br.Requests) == 0 {
		return br, fmt.Errorf("core: no executable requests in batch of %d (first: %v)",
			len(reqs), br.Rejected[0].Err)
	}

	s.poison("unlearn")
	uRes, err := fl.RunPhase(s.Model, merged, s.phaseConfig(s.Cfg.Unlearn, optim.Ascend, "unlearn"), s.rng)
	if err != nil {
		// The model may be partially ascended, but the forget ledger can
		// still be restored so a retry resolves the same shards.
		s.rollbackMarks(br.Requests)
		return br, fmt.Errorf("core: unlearning phase: %w", err)
	}
	br.Unlearn = eval.Cost{Rounds: uRes.Rounds, WallTime: uRes.WallTime, DataSize: shardSize(merged)}
	s.observe("unlearn")

	retain := s.retainShards()
	if shardSize(retain) == 0 {
		// Nothing left to recover on (e.g. the batch unlearned the last
		// remaining knowledge) — recovery is a no-op.
		br.Total = br.Unlearn
		s.observe("recover")
		return br, nil
	}
	rRes, err := fl.RunPhase(s.Model, retain, s.phaseConfig(s.Cfg.Recover, optim.Descend, "recover"), s.rng)
	if err != nil {
		// The model is ascended but not recovered. Restore the ledger so
		// the failure is retryable end to end — keeping the marks would
		// reject a resubmission as "already unlearned" even though no
		// consistent unlearned model was ever produced. The caller owns
		// restoring the parameters (see the error contract above).
		s.rollbackMarks(br.Requests)
		return br, fmt.Errorf("core: recovery phase: %w", err)
	}
	br.Recover = eval.Cost{Rounds: rRes.Rounds, WallTime: rRes.WallTime, DataSize: shardSize(retain)}
	br.Total = br.Unlearn
	br.Total.Add(br.Recover)
	s.observe("recover")
	return br, nil
}

// poison plants a NaN in the first element of the model's first
// parameter when Config.PoisonPhase names the phase about to run — the
// fault-injection hook the health watchdog's end-to-end tests and
// scripts/health_smoke.sh drive. No-op unless explicitly configured.
func (s *System) poison(phase string) {
	if s.Cfg.PoisonPhase != phase {
		return
	}
	params := s.Model.ParamTensors()
	if len(params) == 0 || params[0].Len() == 0 {
		return
	}
	params[0].Data()[0] = math.NaN()
}

// resolveOne validates a request against the current forget state,
// returns its forget shards, and marks it removed.
func (s *System) resolveOne(req Request) ([]*data.Dataset, error) {
	if err := s.checkNotRemoved(req); err != nil {
		return nil, err
	}
	shards, err := s.forgetShards(req)
	if err != nil {
		return nil, err
	}
	if err := s.markRemoved(req, true); err != nil {
		return nil, err
	}
	return shards, nil
}

// rollbackMarks clears the forget marks of the given requests in
// reverse order, restoring the ledger after a failed SGA phase.
func (s *System) rollbackMarks(reqs []Request) {
	for i := len(reqs) - 1; i >= 0; i-- {
		// A mark that resolved forward resolves backward; a failure here
		// would leave the ledger ahead of the model either way.
		_ = s.markRemoved(reqs[i], false)
	}
}
