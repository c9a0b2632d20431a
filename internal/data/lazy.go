package data

import (
	"fmt"
	"math/rand"
)

// PartitionScheme selects how a lazy cohort assigns labels to clients.
type PartitionScheme int

const (
	// SchemeIID gives every client the global label distribution.
	SchemeIID PartitionScheme = iota
	// SchemeDirichlet draws each client's label distribution from
	// Dir(alpha, …, alpha), the Hsu et al. (2019) skew the paper uses.
	SchemeDirichlet
	// SchemeShards gives each client ClassesPerClient classes — the
	// pathological McMahan et al. (2017) split.
	SchemeShards
)

// String names the scheme for logs and manifests.
func (s PartitionScheme) String() string {
	switch s {
	case SchemeIID:
		return "iid"
	case SchemeDirichlet:
		return "dirichlet"
	case SchemeShards:
		return "shards"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// PartitionSpec describes a cohort entirely by recipe: a synthetic data
// spec, a client count, and a label-assignment scheme. Any client's
// shard is derivable from (Seed, client ID) alone, so a cohort of a
// million clients costs the size of this struct until a shard is asked
// for.
type PartitionSpec struct {
	Data             Spec
	Clients          int
	SamplesPerClient int
	Seed             int64
	Scheme           PartitionScheme
	// Alpha is the Dirichlet concentration (SchemeDirichlet).
	Alpha float64
	// ClassesPerClient bounds each client's label support (SchemeShards).
	ClassesPerClient int
}

// Validate reports recipe errors.
func (s PartitionSpec) Validate() error {
	if s.Clients <= 0 || s.SamplesPerClient <= 0 {
		return fmt.Errorf("data: partition spec needs positive clients and samples per client, got %d and %d",
			s.Clients, s.SamplesPerClient)
	}
	if s.Data.H <= 0 || s.Data.W <= 0 || s.Data.C <= 0 || s.Data.Classes <= 0 {
		return fmt.Errorf("data: partition spec has degenerate data spec %+v", s.Data)
	}
	switch s.Scheme {
	case SchemeIID:
	case SchemeDirichlet:
		if s.Alpha <= 0 {
			return fmt.Errorf("data: dirichlet scheme needs alpha > 0, got %v", s.Alpha)
		}
	case SchemeShards:
		if s.ClassesPerClient <= 0 || s.ClassesPerClient > s.Data.Classes {
			return fmt.Errorf("data: shards scheme needs 0 < classes per client ≤ %d, got %d",
				s.Data.Classes, s.ClassesPerClient)
		}
	default:
		return fmt.Errorf("data: unknown partition scheme %d", s.Scheme)
	}
	return nil
}

// LazyCohort is a client registry whose shards are recomputed on demand
// from a PartitionSpec: Shard(id) seeds a private RNG from (Seed, id),
// draws the client's label sequence under the scheme, and renders the
// samples. Nothing is cached — memory stays O(spec) no matter how many
// clients are registered — and Shard(id) returns byte-identical data on
// every call, in any call order, because no RNG state is shared between
// clients.
type LazyCohort struct {
	spec PartitionSpec
}

// NewLazyCohort validates the recipe and wraps it.
func NewLazyCohort(spec PartitionSpec) (*LazyCohort, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &LazyCohort{spec: spec}, nil
}

// NumClients returns the registered cohort size.
func (c *LazyCohort) NumClients() int { return c.spec.Clients }

// ShardLen reports a client's sample count without materializing the
// shard: every registered client holds exactly SamplesPerClient samples.
func (c *LazyCohort) ShardLen(id int) int {
	if id < 0 || id >= c.spec.Clients {
		return 0
	}
	return c.spec.SamplesPerClient
}

// Shard materializes one client's dataset. Cost is O(SamplesPerClient ×
// H×W×C) time and memory per call; the caller owns the result and no
// reference is retained.
func (c *LazyCohort) Shard(id int) *Dataset {
	if id < 0 || id >= c.spec.Clients {
		return nil
	}
	spec := c.spec
	rng := rand.New(rand.NewSource(DeriveSeed(spec.Seed, int64(id))))
	ds := NewDataset(spec.Data.H, spec.Data.W, spec.Data.C, spec.Data.Classes)
	for _, label := range c.labels(rng) {
		ds.Append(renderSample(spec.Data, label, rng), label)
	}
	return ds
}

// labels draws the client's label sequence under the scheme. All draws
// come from the client's private rng, so the sequence — and everything
// rendered after it — is a pure function of (Seed, id).
func (c *LazyCohort) labels(rng *rand.Rand) []int {
	spec := c.spec
	out := make([]int, spec.SamplesPerClient)
	switch spec.Scheme {
	case SchemeDirichlet:
		props := dirichlet(rng, spec.Alpha, spec.Data.Classes)
		for i := range out {
			out[i] = categorical(rng, props)
		}
	case SchemeShards:
		classes := rng.Perm(spec.Data.Classes)[:spec.ClassesPerClient]
		for i := range out {
			out[i] = classes[i%len(classes)]
		}
	default: // SchemeIID
		for i := range out {
			out[i] = rng.Intn(spec.Data.Classes)
		}
	}
	return out
}

// categorical draws an index from the given proportions (which sum to 1
// up to rounding; the last index absorbs the remainder).
func categorical(rng *rand.Rand, props []float64) int {
	u := rng.Float64()
	cum := 0.0
	for i, p := range props {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(props) - 1
}

// DeriveSeed mixes a base seed with a path of IDs (client, round, …)
// through SplitMix64, giving every (base, path) pair an independent,
// reproducible RNG stream. Both the lazy cohort and the sampled FedAvg
// runner derive their per-client streams through this, which is what
// makes a client's data and its local-step noise a function of identity
// rather than of scheduling order.
func DeriveSeed(base int64, path ...int64) int64 {
	h := splitmix64(uint64(base))
	for _, id := range path {
		h = splitmix64(h ^ uint64(id))
	}
	return int64(h &^ (1 << 63)) // non-negative, full 63-bit entropy
}

// splitmix64 is the finalizer from Steele et al.'s SplitMix64 PRNG — a
// bijective 64-bit mixer with full avalanche.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
