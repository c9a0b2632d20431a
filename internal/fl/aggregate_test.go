package fl

import (
	"math/rand"
	"testing"

	"quickdrop/internal/tensor"
)

func randParams(rng *rand.Rand, n int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, n)
	for i := range out {
		out[i] = []*tensor.Tensor{
			tensor.Randn(rng, 1, 4, 3),
			tensor.Randn(rng, 1, 7),
		}
	}
	return out
}

// TestStreamAggregatorMatchesCollectThenAverage is the 0-ULP property
// test: folding K weighted updates incrementally must produce exactly
// the result of the historical collect-then-average loop, because both
// perform the identical sequence of AxpyInPlace adds in client-ID order
// followed by one scale. Any reordering or algebraic "simplification"
// inside the aggregator would break bitwise equality here.
func TestStreamAggregatorMatchesCollectThenAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(12)
		updates := randParams(rng, k)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 1 + 100*rng.Float64()
		}

		// Reference: the pre-refactor collect-then-average arithmetic.
		ref := zerosLike(updates[0])
		total := 0.0
		for i, u := range updates {
			for j, p := range u {
				ref[j].AxpyInPlace(weights[i], p)
			}
			total += weights[i]
		}
		for _, t := range ref {
			t.ScaleInPlace(1 / total)
		}

		agg := NewStreamAggregator(updates[0])
		for i, u := range updates {
			agg.Fold(u, weights[i])
		}
		if agg.folds != k || agg.TotalWeight() != total {
			t.Fatalf("trial %d: folds=%d total=%v, want %d, %v", trial, agg.folds, agg.TotalWeight(), k, total)
		}
		got := agg.Finish()
		for j := range ref {
			rd, gd := ref[j].Data(), got[j].Data()
			for e := range rd {
				if rd[e] != gd[e] {
					t.Fatalf("trial %d tensor %d elem %d: %v != %v (must be 0 ULP)", trial, j, e, gd[e], rd[e])
				}
			}
		}
	}
}

func TestStreamAggregatorResetReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := randParams(rng, 2)
	agg := NewStreamAggregator(u[0])
	agg.Fold(u[0], 2)
	first := agg.Finish()
	agg.Reset()
	if agg.TotalWeight() != 0 || agg.folds != 0 {
		t.Fatal("Reset did not clear totals")
	}
	agg.Fold(u[1], 3)
	second := agg.Finish()
	if &first[0].Data()[0] != &second[0].Data()[0] {
		t.Fatal("Reset must reuse the accumulator storage, not reallocate")
	}
	// After reset, the result replays the exact fold arithmetic on u[1]
	// alone: (3·p) scaled by 1/3 (multiplication by the reciprocal, as
	// ScaleInPlace does — not division).
	for j := range second {
		sd, ud := second[j].Data(), u[1][j].Data()
		for e := range sd {
			if want := (3 * ud[e]) * (1.0 / 3); sd[e] != want {
				t.Fatalf("single-fold mean differs at tensor %d elem %d: %v != %v", j, e, sd[e], want)
			}
		}
	}
}

func TestStreamAggregatorFoldIsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	u := randParams(rng, 1)[0]
	agg := NewStreamAggregator(u)
	if n := testing.AllocsPerRun(100, func() {
		agg.Reset()
		agg.Fold(u, 2)
		agg.Fold(u, 3)
		_ = agg.Finish()
	}); n != 0 {
		t.Fatalf("Reset+Fold+Finish allocated %v times per round, want 0 (O(model) accumulator is reused)", n)
	}
}

func TestStreamAggregatorZeroWeightPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	agg := NewStreamAggregator(randParams(rng, 1)[0])
	defer func() {
		if recover() == nil {
			t.Fatal("Finish with zero total weight must panic")
		}
	}()
	agg.Finish()
}
