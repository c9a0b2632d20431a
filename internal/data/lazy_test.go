package data

import (
	"bytes"
	"testing"
)

func testPartitionSpec(clients int) PartitionSpec {
	return PartitionSpec{
		Data:             MNISTLike(8, 4),
		Clients:          clients,
		SamplesPerClient: 12,
		Seed:             7,
		Scheme:           SchemeIID,
	}
}

func shardBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLazyCohortShardDeterministic(t *testing.T) {
	a, err := NewLazyCohort(testPartitionSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLazyCohort(testPartitionSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize other shards first on one cohort: call order must not
	// influence any shard's content (no shared RNG state).
	b.Shard(999)
	b.Shard(0)
	for _, id := range []int{0, 5, 421, 999} {
		if !bytes.Equal(shardBytes(t, a.Shard(id)), shardBytes(t, b.Shard(id))) {
			t.Fatalf("shard %d differs between identically specified cohorts", id)
		}
		// Repeated materialization of the same shard is also identical.
		if !bytes.Equal(shardBytes(t, a.Shard(id)), shardBytes(t, a.Shard(id))) {
			t.Fatalf("shard %d differs between repeated calls", id)
		}
	}
}

func TestLazyCohortShardLenContract(t *testing.T) {
	c, err := NewLazyCohort(testPartitionSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClients() != 10 {
		t.Fatalf("NumClients = %d, want 10", c.NumClients())
	}
	for id := 0; id < c.NumClients(); id++ {
		if got, want := c.ShardLen(id), c.Shard(id).Len(); got != want {
			t.Fatalf("ShardLen(%d) = %d but Shard(%d).Len() = %d", id, got, id, want)
		}
	}
	for _, id := range []int{-1, 10, 1 << 20} {
		if c.ShardLen(id) != 0 {
			t.Fatalf("ShardLen(%d) = %d, want 0", id, c.ShardLen(id))
		}
		if c.Shard(id) != nil {
			t.Fatalf("Shard(%d) should be nil out of range", id)
		}
	}
}

func TestLazyCohortDirichletIsSkewed(t *testing.T) {
	iidSpec := testPartitionSpec(40)
	dirSpec := testPartitionSpec(40)
	dirSpec.Scheme, dirSpec.Alpha = SchemeDirichlet, 0.1
	iid, _ := NewLazyCohort(iidSpec)
	dir, _ := NewLazyCohort(dirSpec)

	// Mean per-client heterogeneity: average L1 distance between a
	// client's class distribution and uniform. Dirichlet(0.1) must be
	// decisively more skewed than IID.
	skew := func(c *LazyCohort) float64 {
		total := 0.0
		for id := 0; id < c.NumClients(); id++ {
			counts := c.Shard(id).ClassCounts()
			n := c.ShardLen(id)
			for _, cnt := range counts {
				d := float64(cnt)/float64(n) - 1.0/float64(len(counts))
				if d < 0 {
					d = -d
				}
				total += d
			}
		}
		return total / float64(c.NumClients())
	}
	if si, sd := skew(iid), skew(dir); sd < 2*si {
		t.Fatalf("dirichlet skew %.3f not clearly above iid skew %.3f", sd, si)
	}
}

func TestLazyCohortShardsSchemeBoundsSupport(t *testing.T) {
	spec := testPartitionSpec(20)
	spec.Scheme, spec.ClassesPerClient = SchemeShards, 2
	c, err := NewLazyCohort(spec)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.NumClients(); id++ {
		distinct := 0
		for _, cnt := range c.Shard(id).ClassCounts() {
			if cnt > 0 {
				distinct++
			}
		}
		if distinct > 2 {
			t.Fatalf("client %d holds %d classes, want ≤ 2", id, distinct)
		}
	}
}

func TestPartitionSpecValidate(t *testing.T) {
	bad := []func(*PartitionSpec){
		func(s *PartitionSpec) { s.Clients = 0 },
		func(s *PartitionSpec) { s.SamplesPerClient = 0 },
		func(s *PartitionSpec) { s.Data.Classes = 0 },
		func(s *PartitionSpec) { s.Scheme, s.Alpha = SchemeDirichlet, 0 },
		func(s *PartitionSpec) { s.Scheme, s.ClassesPerClient = SchemeShards, 0 },
		func(s *PartitionSpec) { s.Scheme = PartitionScheme(42) },
	}
	for i, mutate := range bad {
		s := testPartitionSpec(4)
		mutate(&s)
		if _, err := NewLazyCohort(s); err == nil {
			t.Fatalf("spec mutation %d should be invalid", i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not stable")
	}
	seen := make(map[int64]bool)
	for base := int64(0); base < 10; base++ {
		for id := int64(0); id < 100; id++ {
			s := DeriveSeed(base, id)
			if s < 0 {
				t.Fatalf("DeriveSeed(%d, %d) = %d is negative", base, id, s)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed collision at (%d, %d)", base, id)
			}
			seen[s] = true
		}
	}
	// Path sensitivity: order and arity matter.
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("DeriveSeed ignores path order")
	}
	if DeriveSeed(1, 2) == DeriveSeed(1, 2, 0) {
		t.Fatal("DeriveSeed ignores path length")
	}
}

func TestCohortAdapterSharesShards(t *testing.T) {
	spec := MNISTLike(8, 4)
	train, _ := Generate(spec, 3)
	parts := []*Dataset{train, nil}
	c := NewCohort(parts)
	if c.NumClients() != 2 {
		t.Fatalf("NumClients = %d", c.NumClients())
	}
	if c.Shard(0) != train {
		t.Fatal("Cohort.Shard must return the identical dataset pointer")
	}
	if c.ShardLen(1) != 0 || c.Shard(1) != nil {
		t.Fatal("nil shard must report empty")
	}
	if c.ShardLen(-1) != 0 || c.Shard(5) != nil {
		t.Fatal("out-of-range must report empty")
	}
}
