package data

// Cohort adapts an eagerly materialized []*Dataset to the client-registry
// shape consumed by internal/fl (NumClients / ShardLen / Shard). It is a
// zero-cost view: Shard returns the identical *Dataset pointers the slice
// holds, so code migrated from slices to a Cohort sees the same objects,
// the same lengths, and therefore the same numerics bit for bit.
type Cohort struct {
	parts []*Dataset
}

// NewCohort wraps parts without copying. Nil entries and empty datasets
// stay in place; they report ShardLen 0 and are skipped by eligibility
// scans exactly as the slice-based code skipped them.
func NewCohort(parts []*Dataset) *Cohort {
	return &Cohort{parts: parts}
}

// NumClients returns the cohort size, counting nil/empty shards.
func (c *Cohort) NumClients() int {
	if c == nil {
		return 0
	}
	return len(c.parts)
}

// ShardLen returns the sample count of one client's shard without
// materializing anything; 0 for nil shards and out-of-range IDs.
func (c *Cohort) ShardLen(id int) int {
	if c == nil || id < 0 || id >= len(c.parts) || c.parts[id] == nil {
		return 0
	}
	return c.parts[id].Len()
}

// Shard returns the client's dataset — the same pointer the wrapped
// slice holds, not a copy. Nil for out-of-range IDs.
func (c *Cohort) Shard(id int) *Dataset {
	if c == nil || id < 0 || id >= len(c.parts) {
		return nil
	}
	return c.parts[id]
}
