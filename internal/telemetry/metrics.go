package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods
// are safe for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates d with a compare-and-swap loop (allocation-free).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bucket bounds are set at
// registration; Observe is a linear scan over at most a few dozen
// bounds plus three atomic updates — no allocation, no locks.
type Histogram struct {
	upper  []float64      // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(upper)+1
	sum    Gauge
	count  atomic.Int64
}

// DefBuckets are the default duration buckets in seconds (the
// Prometheus client defaults, which fit round/step latencies here).
func DefBuckets() []float64 {
	return []float64{.0005, .001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets()
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// CounterVec is a pre-registered family of counters over a fixed label
// value set. Series are allocated at registration time so the record
// path is a bounds-checked slice index — no map lookup, no allocation.
type CounterVec struct {
	series []*Counter
}

// At returns the i-th series, or nil (a safe no-op handle) when the
// vec is nil or i is outside the pre-registered range. Out-of-range
// records are deliberately dropped rather than allocated.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.series) {
		return nil
	}
	return v.series[i]
}

// HistogramVec is the histogram analogue of CounterVec.
type HistogramVec struct {
	series []*Histogram
}

// At returns the i-th series or a nil no-op handle.
func (v *HistogramVec) At(i int) *Histogram {
	if v == nil || i < 0 || i >= len(v.series) {
		return nil
	}
	return v.series[i]
}

// metricKind discriminates registry families.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// seriesEntry is one (label value, instrument) pair of a family.
type seriesEntry struct {
	labelValue string
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// family groups the series of one metric name.
type family struct {
	kind   metricKind
	name   string
	help   string
	label  string // empty for unlabeled metrics
	series []seriesEntry
}

// Registry owns metric families. Registration (allocating) happens at
// setup time; the handles it returns are the allocation-free record
// path. All registration methods are nil-receiver-safe and return nil
// no-op handles, so construction sites need no enabled/disabled
// branches.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[f.name]; ok {
		panic(fmt.Sprintf("telemetry: metric %q registered twice (kinds %d and %d)", f.name, prev.kind, f.kind))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&family{kind: kindCounter, name: name, help: help, series: []seriesEntry{{c: c}}})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&family{kind: kindGauge, name: name, help: help, series: []seriesEntry{{g: g}}})
	return g
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (DefBuckets when empty).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	r.register(&family{kind: kindHistogram, name: name, help: help, series: []seriesEntry{{h: h}}})
	return h
}

// CounterVec registers one counter per label value; At(i) addresses
// the series for values[i].
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	if r == nil {
		return nil
	}
	f := &family{kind: kindCounter, name: name, help: help, label: label}
	v := &CounterVec{series: make([]*Counter, len(values))}
	for i, val := range values {
		v.series[i] = &Counter{}
		f.series = append(f.series, seriesEntry{labelValue: val, c: v.series[i]})
	}
	r.register(f)
	return v
}

// HistogramVec registers one histogram per label value.
func (r *Registry) HistogramVec(name, help, label string, values []string, buckets []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	f := &family{kind: kindHistogram, name: name, help: help, label: label}
	v := &HistogramVec{series: make([]*Histogram, len(values))}
	for i, val := range values {
		v.series[i] = newHistogram(buckets)
		f.series = append(f.series, seriesEntry{labelValue: val, h: v.series[i]})
	}
	r.register(f)
	return v
}

// IndexValues returns the label values "0".."n-1", the pre-registered
// value set for per-client and other index-addressed vecs.
func IndexValues(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

// sortedFamilies snapshots the family list sorted by name, for the
// deterministic exposition order of the exporters.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
