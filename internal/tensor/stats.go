package tensor

import "math"

// NormStats is the numerics health monitor's (internal/telemetry/health)
// kernel: one pass returning the Euclidean norm of t's finite elements
// plus its NaN and ±Inf counts. It performs no allocation.
func NormStats(t *Tensor) (l2 float64, nans, infs int) {
	sumsq := 0.0
	for _, v := range t.data {
		if v != v {
			nans++
			continue
		}
		if math.IsInf(v, 0) {
			infs++
			continue
		}
		sumsq += v * v
	}
	return math.Sqrt(sumsq), nans, infs
}
