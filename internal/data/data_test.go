package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quickdrop/internal/tensor"
)

func tinySet(t *testing.T, n int) *Dataset {
	t.Helper()
	ds := NewDataset(2, 2, 1, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		ds.Append(tensor.Randn(rng, 1, 2, 2, 1), i%3)
	}
	return ds
}

func TestAppendValidates(t *testing.T) {
	ds := NewDataset(2, 2, 1, 3)
	t.Run("shape", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		ds.Append(tensor.New(3, 3, 1), 0)
	})
	t.Run("label", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		ds.Append(tensor.New(2, 2, 1), 3)
	})
}

func TestSubsetSharesStorage(t *testing.T) {
	ds := tinySet(t, 6)
	s := ds.Subset([]int{0, 2})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.X[0] != ds.X[0] || s.X[1] != ds.X[2] {
		t.Fatal("Subset must share sample tensors")
	}
}

func TestByClassAndCounts(t *testing.T) {
	ds := tinySet(t, 7) // labels 0,1,2,0,1,2,0
	by := ds.ByClass()
	if len(by[0]) != 3 || len(by[1]) != 2 || len(by[2]) != 2 {
		t.Fatalf("ByClass = %v", by)
	}
	counts := ds.ClassCounts()
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("ClassCounts = %v", counts)
	}
}

func TestOfClassWithoutClassComplement(t *testing.T) {
	ds := tinySet(t, 9)
	of := ds.OfClass(1)
	without := ds.WithoutClass(1)
	if of.Len()+without.Len() != ds.Len() {
		t.Fatal("OfClass + WithoutClass must cover the dataset")
	}
	for _, y := range of.Y {
		if y != 1 {
			t.Fatal("OfClass leaked other labels")
		}
	}
	for _, y := range without.Y {
		if y == 1 {
			t.Fatal("WithoutClass kept the class")
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := tinySet(t, 3), tinySet(t, 4)
	m := Merge(a, b)
	if m.Len() != 7 {
		t.Fatalf("merged len = %d", m.Len())
	}
}

func TestMergeRejectsMismatch(t *testing.T) {
	a := NewDataset(2, 2, 1, 3)
	b := NewDataset(4, 4, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Merge(a, b)
}

func TestBatchLayout(t *testing.T) {
	ds := NewDataset(1, 2, 1, 2)
	ds.Append(tensor.FromSlice([]float64{1, 2}, 1, 2, 1), 0)
	ds.Append(tensor.FromSlice([]float64{3, 4}, 1, 2, 1), 1)
	x, y := ds.Batch([]int{1, 0})
	if x.Dim(0) != 2 || x.At(0, 0, 0, 0) != 3 || x.At(1, 0, 1, 0) != 2 {
		t.Fatalf("batch = %v", x.Data())
	}
	if y[0] != 1 || y[1] != 0 {
		t.Fatalf("labels = %v", y)
	}
}

func TestSampleBatchBounds(t *testing.T) {
	ds := tinySet(t, 5)
	rng := rand.New(rand.NewSource(2))
	x, y := ds.SampleBatch(rng, 3)
	if x.Dim(0) != 3 || len(y) != 3 {
		t.Fatal("batch size wrong")
	}
	x, y = ds.SampleBatch(rng, 99)
	if x.Dim(0) != 5 || len(y) != 5 {
		t.Fatal("oversized request must clamp to dataset size")
	}
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	spec := MNISTLike(8, 6)
	tr1, te1 := Generate(spec, 42)
	tr2, _ := Generate(spec, 42)
	if tr1.Len() != 60 || te1.Len() != 30 {
		t.Fatalf("sizes %d/%d", tr1.Len(), te1.Len())
	}
	for i := range tr1.X {
		if tr1.Y[i] != tr2.Y[i] {
			t.Fatal("generation must be deterministic per seed")
		}
		for j := range tr1.X[i].Data() {
			if tr1.X[i].Data()[j] != tr2.X[i].Data()[j] {
				t.Fatal("pixel mismatch across same-seed generations")
			}
		}
	}
	counts := tr1.ClassCounts()
	for c, n := range counts {
		if n != 6 {
			t.Fatalf("class %d has %d samples, want 6", c, n)
		}
	}
}

func TestGenerateClassesAreSeparable(t *testing.T) {
	// Nearest-class-prototype classification on clean means should beat
	// chance by a wide margin — the datasets must carry class signal.
	spec := MNISTLike(8, 20)
	train, test := Generate(spec, 7)
	protos := make([]*tensor.Tensor, spec.Classes)
	for c := 0; c < spec.Classes; c++ {
		sub := train.OfClass(c)
		mean := tensor.New(spec.H, spec.W, spec.C)
		for _, x := range sub.X {
			mean.AxpyInPlace(1, x)
		}
		protos[c] = mean.ScaleInPlace(1 / float64(sub.Len()))
	}
	correct := 0
	for i, x := range test.X {
		best, bestD := -1, math.Inf(1)
		for c, p := range protos {
			d := x.Sub(p).Norm()
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.8 {
		t.Fatalf("prototype accuracy %.2f too low — datasets carry no class signal", acc)
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"mnistlike", "cifarlike", "svhnlike"} {
		spec, err := SpecByName(name, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Fatalf("got %q", spec.Name)
		}
	}
	if _, err := SpecByName("imagenet", 8, 10); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestPartitionIIDConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := MNISTLike(8, 4)
		ds, _ := Generate(spec, seed)
		n := 2 + r.Intn(5)
		parts := PartitionIID(ds, n, r)
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		return total == ds.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDirichletConservationAndNonEmpty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := MNISTLike(8, 6)
		ds, _ := Generate(spec, seed)
		n := 2 + r.Intn(8)
		parts := PartitionDirichlet(ds, n, 0.1, r)
		total := 0
		seen := make(map[*tensor.Tensor]int)
		for _, p := range parts {
			if p.Len() == 0 {
				return false
			}
			total += p.Len()
			for _, x := range p.X {
				seen[x]++
			}
		}
		if total != ds.Len() {
			return false
		}
		// Every sample assigned exactly once.
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletSkewOrdering(t *testing.T) {
	// Lower alpha ⇒ more heterogeneity, averaged over several seeds.
	spec := MNISTLike(8, 30)
	var hLow, hHigh float64
	const trials = 5
	for s := int64(0); s < trials; s++ {
		ds, _ := Generate(spec, s)
		low := PartitionDirichlet(ds, 10, 0.1, rand.New(rand.NewSource(100+s)))
		high := PartitionDirichlet(ds, 10, 100, rand.New(rand.NewSource(200+s)))
		hLow += HeterogeneityStat(low)
		hHigh += HeterogeneityStat(high)
	}
	if hLow <= hHigh {
		t.Fatalf("alpha=0.1 heterogeneity %.3f should exceed alpha=100 %.3f", hLow/trials, hHigh/trials)
	}
}

func TestHeterogeneityStatIIDNearZero(t *testing.T) {
	spec := MNISTLike(8, 40)
	ds, _ := Generate(spec, 3)
	parts := PartitionIID(ds, 4, rand.New(rand.NewSource(4)))
	if h := HeterogeneityStat(parts); h > 0.2 {
		t.Fatalf("IID heterogeneity %.3f too high", h)
	}
}

func TestPartitionValidation(t *testing.T) {
	ds := tinySet(t, 3)
	rng := rand.New(rand.NewSource(5))
	for _, f := range []func(){
		func() { PartitionIID(ds, 0, rng) },
		func() { PartitionIID(ds, 10, rng) },
		func() { PartitionDirichlet(ds, 0, 0.1, rng) },
		func() { PartitionDirichlet(ds, 2, -1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGammaSampleMoments(t *testing.T) {
	// Gamma(k,1) has mean k; sanity check the sampler for k<1 and k>1.
	rng := rand.New(rand.NewSource(6))
	for _, k := range []float64{0.1, 0.5, 2, 5} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += gammaSample(rng, k)
		}
		mean := sum / n
		if math.Abs(mean-k) > 0.1*k+0.05 {
			t.Fatalf("Gamma(%g) sample mean %.3f", k, mean)
		}
	}
}

func TestWithoutIndices(t *testing.T) {
	ds := tinySet(t, 5)
	out := ds.WithoutIndices(map[int]bool{1: true, 3: true})
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.X[0] != ds.X[0] || out.X[1] != ds.X[2] || out.X[2] != ds.X[4] {
		t.Fatal("wrong samples excluded")
	}
	if ds.WithoutIndices(nil) != ds {
		t.Fatal("empty exclusion must return the receiver")
	}
}
