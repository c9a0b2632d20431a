package tensor

import (
	"math"
	"testing"
)

func TestNormStatsNonFinite(t *testing.T) {
	tt := New(1030)
	for i := range tt.data {
		tt.data[i] = float64(i%7) - 3
	}
	tt.data[3] = math.NaN()
	tt.data[600] = math.Inf(1)
	tt.data[601] = math.Inf(-1)
	tt.data[1029] = math.NaN()
	sumsq := 0.0
	for _, v := range tt.data {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			sumsq += v * v
		}
	}

	l2, nans, infs := NormStats(tt)
	if nans != 2 || infs != 2 {
		t.Fatalf("NormStats poison counts: got %d/%d want 2/2", nans, infs)
	}
	if l2 != math.Sqrt(sumsq) {
		t.Fatalf("NormStats L2 %g, want the finite elements' norm %g", l2, math.Sqrt(sumsq))
	}
}

func TestStatsKernelsDoNotAllocate(t *testing.T) {
	tt := New(1025)
	for i := range tt.data {
		tt.data[i] = float64(i)
	}
	if n := testing.AllocsPerRun(100, func() { NormStats(tt) }); n != 0 {
		t.Fatalf("NormStats allocates %v times per run, want 0", n)
	}
}
