package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(5)
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(0.25)
	if got := g.Value(); got != 1.75 {
		t.Fatalf("Value = %v, want 1.75", got)
	}
	var nilG *Gauge
	nilG.Set(3)
	nilG.Add(1)
	if got := nilG.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %v, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// Cumulative: ≤1: {0.5, 1} = 2; ≤2: +1.5 = 3; ≤4: +3 = 4; +Inf: +100 = 5.
	wantRaw := []int64{2, 1, 1, 1}
	for i, want := range wantRaw {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("Sum = %v, want 106", h.Sum())
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram should report zeros")
	}
}

func TestHistogramSortsBuckets(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2})
	h.Observe(1.5)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("1.5 should land in the (1,2] bucket, counts[1] = %d", got)
	}
}

func TestVecAtBounds(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("c_total", "h", "i", IndexValues(3))
	hv := reg.HistogramVec("h_seconds", "h", "i", IndexValues(2), nil)
	cv.At(2).Inc()
	if cv.At(2).Value() != 1 {
		t.Error("in-range series should record")
	}
	// Out-of-range and nil-vec lookups return safe no-op handles.
	cv.At(-1).Inc()
	cv.At(3).Inc()
	hv.At(9).Observe(1)
	var nilCV *CounterVec
	var nilHV *HistogramVec
	nilCV.At(0).Inc()
	nilHV.At(0).Observe(1)
}

func TestRegistryNilAndDuplicates(t *testing.T) {
	var nilReg *Registry
	if nilReg.Counter("x", "") != nil || nilReg.Gauge("x", "") != nil ||
		nilReg.Histogram("x", "", nil) != nil ||
		nilReg.CounterVec("x", "", "l", nil) != nil ||
		nilReg.HistogramVec("x", "", "l", nil, nil) != nil {
		t.Fatal("nil registry must hand out nil no-op instruments")
	}
	reg := NewRegistry()
	reg.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.Gauge("dup_total", "")
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("quickdrop_test_total", "A counter.")
	g := reg.Gauge("quickdrop_test_gauge", "A gauge.")
	h := reg.Histogram("quickdrop_test_seconds", "A histogram.", []float64{1, 2})
	cv := reg.CounterVec("quickdrop_test_by_client_total", "Labeled.", "client", IndexValues(2))
	c.Add(3)
	g.Set(2.5)
	h.Observe(0.5)
	h.Observe(3)
	cv.At(1).Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP quickdrop_test_total A counter.",
		"# TYPE quickdrop_test_total counter",
		"quickdrop_test_total 3",
		"quickdrop_test_gauge 2.5",
		"# TYPE quickdrop_test_seconds histogram",
		`quickdrop_test_seconds_bucket{le="1"} 1`,
		`quickdrop_test_seconds_bucket{le="2"} 1`,
		`quickdrop_test_seconds_bucket{le="+Inf"} 2`,
		"quickdrop_test_seconds_sum 3.5",
		"quickdrop_test_seconds_count 2",
		`quickdrop_test_by_client_total{client="0"} 0`,
		`quickdrop_test_by_client_total{client="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families must appear in name order for deterministic scrapes.
	if i, j := strings.Index(out, "quickdrop_test_by_client_total"), strings.Index(out, "quickdrop_test_gauge"); i > j {
		t.Error("families not sorted by name")
	}
}

// TestPrometheusHistogramShape parses the exposition of a plain
// histogram and a labelled histogram vec and checks the histogram
// family contract: only _bucket{…le=…}, _sum and _count samples, with
// cumulative buckets whose le="+Inf" equals _count.
func TestPrometheusHistogramShape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("shape_seconds", "Plain.", []float64{0.1, 1})
	hv := reg.HistogramVec("shape_phase_seconds", "Labelled.", "phase", []string{"a", "b"}, []float64{0.5, 2})
	for _, v := range []float64{0.05, 0.5, 0.7, 3, 10} {
		h.Observe(v)
		hv.At(0).Observe(v)
	}
	hv.At(1).Observe(1)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	family := ""
	last := map[string]int64{} // series (labels minus le) → previous bucket count
	inf := map[string]int64{}
	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			family = ""
			if kind == "histogram" {
				family = name
			}
			continue
		}
		if family == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, val, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(sample, "{")
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		series := strings.TrimSuffix(labels, "}")
		if i := strings.Index(series, "le="); i >= 0 {
			series = strings.TrimSuffix(series[:i], ",")
		}
		switch name {
		case family + "_bucket":
			if !strings.Contains(labels, `le="`) {
				t.Errorf("bucket sample without le label: %q", line)
			}
			if int64(n) < last[series] {
				t.Errorf("buckets of %s{%s} not cumulative at %q", family, series, line)
			}
			last[series] = int64(n)
			if strings.Contains(labels, `le="+Inf"`) {
				inf[series] = int64(n)
			}
		case family + "_count":
			counts[series] = int64(n)
		case family + "_sum":
		default:
			t.Errorf("sample %q under histogram family %s is not _bucket, _sum or _count", line, family)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("parsed %d histogram series, want 3: %v", len(counts), counts)
	}
	for series, c := range counts {
		if inf[series] != c {
			t.Errorf("series {%s}: le=\"+Inf\" = %d, _count = %d", series, inf[series], c)
		}
	}
}
