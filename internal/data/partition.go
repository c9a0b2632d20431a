package data

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// PartitionIID splits ds uniformly at random into n client datasets of
// (nearly) equal size.
func PartitionIID(ds *Dataset, n int, rng *rand.Rand) []*Dataset {
	if n <= 0 {
		panic("data: PartitionIID needs n > 0")
	}
	if ds.Len() < n {
		panic(fmt.Sprintf("data: cannot split %d samples across %d clients", ds.Len(), n))
	}
	perm := rng.Perm(ds.Len())
	out := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		lo := i * ds.Len() / n
		hi := (i + 1) * ds.Len() / n
		out[i] = ds.Subset(perm[lo:hi])
	}
	return out
}

// PartitionDirichlet splits ds across n clients with label-distribution
// skew controlled by the Dirichlet concentration alpha, following Hsu et
// al. (2019) as used in the paper (α = 0.1 for highly non-IID). For every
// class, per-client proportions are drawn from Dir(alpha); lower alpha
// concentrates a class on fewer clients. Each client is guaranteed at
// least one sample overall (empty clients cannot participate in FedAvg's
// weighted aggregation).
func PartitionDirichlet(ds *Dataset, n int, alpha float64, rng *rand.Rand) []*Dataset {
	if n <= 0 {
		panic("data: PartitionDirichlet needs n > 0")
	}
	if alpha <= 0 {
		panic("data: PartitionDirichlet needs alpha > 0")
	}
	if ds.Len() < n {
		panic(fmt.Sprintf("data: cannot split %d samples across %d clients", ds.Len(), n))
	}
	assign := make([][]int, n)
	// Walk classes in sorted order: ranging over the ByClass map would
	// consume rng draws in a run-dependent order and change the split
	// under an identical seed.
	byClass := ds.ByClass()
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		idx := byClass[c]
		shuffled := append([]int(nil), idx...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		props := dirichlet(rng, alpha, n)
		// Convert proportions to cumulative sample boundaries.
		cum := 0.0
		lo := 0
		for i := 0; i < n; i++ {
			cum += props[i]
			hi := int(math.Round(cum * float64(len(shuffled))))
			if i == n-1 {
				hi = len(shuffled)
			}
			if hi > lo {
				assign[i] = append(assign[i], shuffled[lo:hi]...)
			}
			lo = hi
		}
	}
	rebalanceEmpty(assign, rng)
	out := make([]*Dataset, n)
	for i := range assign {
		out[i] = ds.Subset(assign[i])
	}
	return out
}

// rebalanceEmpty moves single samples from the largest shards into empty
// ones so every client has data.
func rebalanceEmpty(assign [][]int, rng *rand.Rand) {
	for i := range assign {
		if len(assign[i]) > 0 {
			continue
		}
		// Find the largest shard with at least 2 samples.
		big := -1
		for j := range assign {
			if len(assign[j]) >= 2 && (big == -1 || len(assign[j]) > len(assign[big])) {
				big = j
			}
		}
		if big == -1 {
			panic("data: not enough samples to give every client one")
		}
		k := rng.Intn(len(assign[big]))
		assign[i] = append(assign[i], assign[big][k])
		assign[big] = append(assign[big][:k], assign[big][k+1:]...)
	}
}

// dirichlet samples a point from Dir(alpha, …, alpha) of dimension n.
func dirichlet(rng *rand.Rand, alpha float64, n int) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = gammaSample(rng, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Numerically possible for tiny alpha: fall back to a random corner.
		out[rng.Intn(n)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia–Tsang, with the
// standard boosting trick for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// HeterogeneityStat summarizes how non-IID a partition is: the mean over
// clients of the total-variation distance between the client's label
// distribution and the global one. 0 means perfectly IID.
func HeterogeneityStat(parts []*Dataset) float64 {
	if len(parts) == 0 {
		return 0
	}
	classes := parts[0].Classes
	global := make([]float64, classes)
	total := 0
	for _, p := range parts {
		for _, y := range p.Y {
			global[y]++
			total++
		}
	}
	for i := range global {
		global[i] /= float64(total)
	}
	sum := 0.0
	for _, p := range parts {
		local := make([]float64, classes)
		for _, y := range p.Y {
			local[y]++
		}
		tv := 0.0
		for i := range local {
			tv += math.Abs(local[i]/float64(p.Len()) - global[i])
		}
		sum += tv / 2
	}
	return sum / float64(len(parts))
}
