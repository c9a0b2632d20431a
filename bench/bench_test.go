package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd series = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even series = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of empty series = %v, want 0", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 25: 20, 90: 46, 100: 50} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 10 || xs[4] != 50 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !near(q1, 1.25) || !near(q2, 3.5) || !near(q3, 5.75) {
		t.Errorf("quartiles = %v %v %v, want 1.25 3.5 5.75", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 24: 50, 39: 50, 40: 75, 100: 90, 200: 95, 240: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOpCountIsFixedByFlags(t *testing.T) {
	for _, c := range []struct {
		base, seconds int
		traced, quick bool
		want          int
	}{
		{200, 20, false, false, 200},
		{200, 10, false, false, 100},
		{200, 60, false, false, 600},
		{200, 20, true, false, 50},
		{200, 20, false, true, 20},
		{24, 20, true, true, 2},
		{18, 1, false, false, 2},
	} {
		if got := opCount(c.base, c.seconds, refSeconds, c.traced, c.quick); got != c.want {
			t.Errorf("opCount(%d, %ds, traced=%v, quick=%v) = %d, want %d", c.base, c.seconds, c.traced, c.quick, got, c.want)
		}
	}
}

func TestPacerChargesStallsToLaterRequests(t *testing.T) {
	start := time.Unix(100, 0)
	p := pacer{start: start, interval: 10 * time.Millisecond}
	if got := p.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	// Request 3 went out 4 ms late and took 2 ms: 6 ms from its due time.
	sent := start.Add(34 * time.Millisecond)
	if got := p.lateness(3, sent); got != 4*time.Millisecond {
		t.Errorf("lateness = %v, want 4ms", got)
	}
	if got := p.latency(3, sent.Add(2*time.Millisecond)); got != 6*time.Millisecond {
		t.Errorf("latency = %v, want 6ms", got)
	}
	// A timer that fires early is not negative lateness.
	if got := p.lateness(3, start.Add(29*time.Millisecond)); got != 0 {
		t.Errorf("lateness of an early send = %v, want 0", got)
	}
}

func TestResultLineRoundTrips(t *testing.T) {
	in := result{Correct: true, Attempted: 1000, Failed: 3, Metrics: map[string]metric{
		"op_p50_ms": {Value: 1.2034567891234, Unit: "ms"},
		"setup_s":   {Value: 0.8127, Unit: "s"},
	}}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks key %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(keys), line)
	}
	var out result
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result: %+v -> %+v", in, out)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100e6},
		{ID: 2, Name: "stage", Start: 10e6, End: 40e6, Parent: 1},
		{ID: 3, Name: "stage", Start: 30e6, End: 60e6, Parent: 1}, // overlaps span 2 by 10 ms
		{ID: 4, Name: "leaf", Start: 35e6, End: 45e6, Parent: 3},
	}
	got := make(map[string]spanTotals)
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if s := got["op"]; s.Count != 1 || !near(s.TotalMS, 100) || !near(s.SelfMS, 50) {
		t.Errorf("op totals = %+v, want 100 ms total and 50 ms self", s)
	}
	if s := got["stage"]; s.Count != 2 || !near(s.TotalMS, 60) || !near(s.SelfMS, 50) {
		t.Errorf("stage totals = %+v, want 60 ms total and 50 ms self", s)
	}
	if s := got["leaf"]; !near(s.SelfMS, 10) {
		t.Errorf("leaf totals = %+v, want 10 ms self", s)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.finish(id)
	if id != 0 || tr.add("y", time.Now(), time.Now(), id, 0) != 0 {
		t.Error("a nil tracer handed out span IDs")
	}
}

func TestBenchmarkFileNamesWhatTheDriverPrints(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, but the operation counts refer to %d s", bf.RunSeconds, refSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the driver does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the driver has %d", names, len(workloads))
	}
	names = names[:0]
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end = %v, driver prints %v", names, endToEnd)
	}
	names = names[:0]
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if !reflect.DeepEqual(names, perLayer) {
		t.Errorf("per_layer = %v, driver prints %v", names, perLayer)
	}
}

func TestLockRefusesSecondRun(t *testing.T) {
	dir := t.TempDir()
	release, err := lock(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lock(dir); err == nil {
		t.Error("a second run took the lock while the first held it")
	}
	release()
	release, err = lock(dir)
	if err != nil {
		t.Fatalf("lock not free after release: %v", err)
	}
	release()
}

func TestCompareSets(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// scale multiplies the timings of every run of a set, shift moves its
	// R-Set accuracy.
	set := func(scale, shift float64) []result {
		var rs []result
		for i := 0; i < 6; i++ {
			wobble := 1 + 0.002*float64(i)
			rs = append(rs, result{Correct: true, Attempted: 10, Metrics: map[string]metric{
				"setup_s":            {Value: 5 * scale * wobble, Unit: "s"},
				"op_p50_ms":          {Value: 90 * scale * wobble, Unit: "ms"},
				"fset_forgotten_pct": {Value: 100, Unit: "%"},
				"rset_acc_pct":       {Value: 70 + float64(i) + shift, Unit: "%"},
				"predict_p50_ms":     {Value: 0.4 * scale * wobble, Unit: "ms"},
			}})
		}
		return rs
	}
	var out bytes.Buffer
	if !compareSets(bf, [2][]result{set(1, 0), set(1.01, 0)}, &out) {
		t.Errorf("sets 1%% apart do not agree:\n%s", out.String())
	}
	out.Reset()
	if compareSets(bf, [2][]result{set(1, 0), set(1.5, 0)}, &out) || !strings.Contains(out.String(), "medians differ") {
		t.Errorf("sets 50%% apart agree:\n%s", out.String())
	}
	out.Reset()
	if compareSets(bf, [2][]result{set(1, 0), set(1, 1e-9)}, &out) || !strings.Contains(out.String(), "on one seed") {
		t.Errorf("quality that differs in the last digits agrees:\n%s", out.String())
	}
	out.Reset()
	bad := set(1, 0)
	bad[2].Correct = false
	if compareSets(bf, [2][]result{set(1, 0), bad}, &out) {
		t.Errorf("a set with an incorrect run agrees:\n%s", out.String())
	}
}

// TestQuickSmoke keeps every workload, the layer probes and the trace
// writer runnable: each workload runs untraced and traced at the quick
// scale, and must report exactly the metrics BENCHMARK.json names.
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			r, err := run(options{workload: w.name, seed: 7, seconds: 2, traced: traced, quick: true, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Result.Correct || r.Result.Failed != 0 || r.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, traced, r.Result.Correct, r.Result.Attempted, r.Result.Failed, r.Reasons)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Result.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := r.Result.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present=%v)", w.name, traced, name, m.Value, ok)
				}
				if ok && m.Value == 0 && name != "trace.overhead_pct" && name != "runtime.gc_cpu_pct" {
					t.Errorf("%s traced=%v: metric %s is 0: its probe did not run", w.name, traced, name)
				}
			}
			if _, err := os.Stat(reportPath(out, w.name, traced)); err != nil {
				t.Errorf("%s traced=%v: report not written: %v", w.name, traced, err)
			}
			if traced {
				checkTraceFile(t, filepath.Join(out, "trace_"+w.name+".jsonl"), w.name)
			}
		}
	}
}

// checkTraceFile reads a written trace back: every line is a span, every
// parent exists, and the workload, its operations and the probes are there.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]bool{0: true}
	names := make(map[string]int)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d %q ends before it starts", path, s.ID, s.Name)
		}
		ids[s.ID] = true
		names[s.Name]++
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if !ids[s.Parent] {
			t.Errorf("%s: span %d %q names parent %d, which is not in the trace", path, s.ID, s.Name, s.Parent)
		}
	}
	for _, name := range []string{"workload." + workload, "probes", "probe.tensor", "probe.core", "core.sga", "core.recover",
		"train_replay", "fl.local_step", "distill.match_step", "epoch", "serve.burst3", "serve.ticket", "client.forget"} {
		if names[name] == 0 {
			t.Errorf("%s: no %q span", path, name)
		}
	}
}
