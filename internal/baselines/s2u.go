package baselines

import (
	"fmt"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/optim"
)

// S2U (Gao et al., VeriFi) unlearns a client by re-weighting FedAvg
// aggregation for a few rounds: the forgetting client's updates are scaled
// *down* while the remaining clients' updates are scaled *up*. Unlearning
// and recovery are integrated into the same rounds, and only client-level
// unlearning is supported (paper §2.3, Table 1).
type S2U struct {
	*base
	// DownScale multiplies the target client's aggregation weight.
	DownScale float64
	// UpScale multiplies the remaining clients' aggregation weights.
	UpScale float64
	// Rounds is how many integrated unlearn/recover rounds to run.
	Rounds int
}

// NewS2U constructs the baseline.
func NewS2U(cfg Config, clients fl.ClientRegistry) (*S2U, error) {
	b, err := newBase(cfg, clients)
	if err != nil {
		return nil, err
	}
	return &S2U{base: b, DownScale: 0.02, UpScale: 1.5, Rounds: 3}, nil
}

// Name implements Method.
func (s *S2U) Name() string { return "S2U" }

// Capabilities implements Method.
func (s *S2U) Capabilities() Capabilities {
	return Capabilities{
		Name: s.Name(), ClassLevel: false, ClientLevel: true, Relearn: true,
		StorageEfficient: true, ComputeEfficiency: "low",
	}
}

// Prepare implements Method.
func (s *S2U) Prepare() error { return s.trainInitial(nil) }

// Unlearn implements Method: integrated scaled rounds on the original data.
func (s *S2U) Unlearn(req core.Request) (Result, error) {
	if err := s.checkUnlearn(req, s.Capabilities()); err != nil {
		return Result{}, err
	}
	if s.DownScale < 0 || s.UpScale <= 0 || s.Rounds < 1 {
		return Result{}, fmt.Errorf("baselines: invalid S2U settings %+v", s)
	}
	target := req.Client
	if target < 0 || target >= s.numClients() || s.clients.ShardLen(target) == 0 {
		return Result{}, fmt.Errorf("baselines: client %d has no data", target)
	}

	// All clients (including the target) participate; aggregation weights
	// do the forgetting.
	shards := make([]*data.Dataset, s.numClients())
	samples := 0
	for i := range shards {
		c := s.shard(i)
		if c == nil || s.forget.ClientRemoved(i) {
			continue
		}
		shards[i] = s.activeSubset(i, c)
		samples += shards[i].Len()
	}

	cfg := s.phaseConfig(s.cfg.Train, optim.Descend, "scale")
	cfg.Rounds = s.Rounds
	cfg.WeightFn = func(clientID, size int) float64 {
		if clientID == target {
			return s.DownScale * float64(size)
		}
		return s.UpScale * float64(size)
	}
	res, err := fl.RunPhase(s.model, shards, cfg, s.rng)
	if err != nil {
		return Result{}, err
	}
	s.forget.Mark(req, true)
	var out Result
	out.Unlearn = eval.Cost{Rounds: res.Rounds, WallTime: res.WallTime, DataSize: samples}
	out.finish()
	s.observe("unlearn")
	s.observe("recover")
	return out, nil
}

// Relearn implements Method.
func (s *S2U) Relearn(req core.Request) (Result, error) { return s.relearnOriginal(req) }
