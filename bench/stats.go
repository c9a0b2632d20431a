package main

import (
	"math"
	"sort"
	"time"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks; 0 for an empty series.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), because that is what the acceptance
// driver computes spreads with; needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// repeatability figure every end-to-end bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentile picks the highest percentile of the usual ladder that
// still has at least ten samples beyond it, so a reported tail is never
// one or two outliers; with fewer than twenty samples only the median
// qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // 99.9 is not exact in binary
			best = p
		}
	}
	return best
}

// opCount is the fixed-count schedule: base operations at the reference
// run length, scaled linearly with -seconds, a quarter of that for the
// traced sections and a tenth in -quick mode. Equal flags always give
// equal counts, so two commits do identical work.
func opCount(base, seconds, refSeconds int, traced, quick bool) int {
	n := base * seconds / refSeconds
	if traced {
		n /= 4
	}
	if quick {
		n /= 10
	}
	if n < 2 {
		n = 2
	}
	return n
}

// pacer is an open-loop schedule: request i is due at start + i·interval
// whatever happened to the requests before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// lateness is how long after its due time request i was actually sent.
func (p pacer) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(p.due(i)); d > 0 {
		return d
	}
	return 0
}

// latency is measured from the due time, not the send time, so a stall
// charges its delay to every request it held up.
func (p pacer) latency(i int, done time.Time) time.Duration { return done.Sub(p.due(i)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
