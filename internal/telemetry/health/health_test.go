package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"quickdrop/internal/telemetry"
)

func testMonitor(cfg Config) (*Monitor, *telemetry.Pipeline) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 2)
	return New(cfg, pipe), pipe
}

// tripped reports the monitor's current trip state, which Summary
// exports as !Healthy.
func tripped(m *Monitor) bool { return !m.Summary().Healthy }

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.BeginPhase("train")
	if m.Sample() {
		t.Error("nil Sample should be false")
	}
	m.RecordLoss(1, math.NaN())
	m.RecordLayer(0, 1, 1e9, 3, 1, 1, 0)
	m.RecordDistill(1, math.NaN(), 1e9, 1)
	m.RecordRound(1, 1)
	m.BindLayers([]string{"w"})
	m.Reset()
	if err := m.Check(); err != nil {
		t.Errorf("nil Check = %v, want nil", err)
	}
	if m.Summary() != nil {
		t.Error("nil Summary should be nil")
	}
}

func TestNaNLossTrips(t *testing.T) {
	var buf bytes.Buffer
	m, _ := testMonitor(Config{Events: telemetry.NewEventLog(&buf)})
	m.BeginPhase("unlearn")
	m.RecordLoss(7, math.NaN())
	if !tripped(m) {
		t.Fatal("NaN loss must trip the watchdog")
	}
	err := m.Check()
	if err == nil || !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("Check = %v, want ErrUnhealthy", err)
	}
	var uh *UnhealthyError
	if !errors.As(err, &uh) {
		t.Fatalf("Check error %T does not unwrap to *UnhealthyError", err)
	}
	if uh.Verdict.Reason != "nan_loss" || uh.Verdict.Phase != "unlearn" || uh.Verdict.Step != 7 {
		t.Fatalf("verdict = %+v", uh.Verdict)
	}
	if !strings.Contains(err.Error(), "nan_loss") || !strings.Contains(err.Error(), "unlearn") {
		t.Fatalf("error text %q should carry reason and phase", err)
	}

	// The JSONL event is emitted exactly once, on the first Check.
	if err2 := m.Check(); err2 == nil {
		t.Fatal("second Check must still fail")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 trip event, got %d: %q", len(lines), buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("trip event is not JSON: %v", err)
	}
	if ev["event"] != "health_trip" || ev["reason"] != "nan_loss" || ev["phase"] != "unlearn" {
		t.Fatalf("trip event = %v", ev)
	}
}

func TestLossSpikeDetectorRebaselinesPerPhase(t *testing.T) {
	m, _ := testMonitor(Config{LossSpikeFactor: 10})
	m.BeginPhase("train")
	for i := 0; i < ewmaWarmup; i++ {
		m.RecordLoss(float64(i), 1.0)
	}
	m.RecordLoss(100, 2.0) // 2× is fine
	if tripped(m) {
		t.Fatal("2x loss should not trip a 10x detector")
	}

	// Gradient ascent: the unlearning phase STARTS with a much larger
	// loss. BeginPhase must re-baseline so that's warm-up, not a spike.
	m.BeginPhase("unlearn")
	for i := 0; i < ewmaWarmup; i++ {
		m.RecordLoss(float64(200+i), 50.0)
	}
	if tripped(m) {
		t.Fatal("phase-initial loss jump must not trip after BeginPhase")
	}
	// But a genuine 10x explosion relative to the new baseline trips.
	m.RecordLoss(300, 50.0*10+1)
	if !tripped(m) {
		t.Fatal("10x spike over the phase baseline must trip")
	}
	var uh *UnhealthyError
	if err := m.Check(); !errors.As(err, &uh) || uh.Verdict.Reason != "loss_spike" {
		t.Fatalf("Check = %v, want loss_spike verdict", err)
	}
}

func TestRecordLayerThresholds(t *testing.T) {
	cases := []struct {
		name   string
		record func(m *Monitor)
		reason string
	}{
		{"grad norm explosion", func(m *Monitor) {
			m.RecordLayer(0, 1, 2e3, 0, 0.1, 1, 0)
		}, "grad_norm"},
		{"nan grad", func(m *Monitor) {
			m.RecordLayer(1, 2, 5, 3, 0.1, 1, 0)
		}, "nan_grad"},
		{"update ratio", func(m *Monitor) {
			m.RecordLayer(0, 3, 5, 0, 90, 1, 0)
		}, "update_ratio"},
		{"nonfinite param", func(m *Monitor) {
			m.RecordLayer(0, 4, 5, 0, 0.1, 1, 2)
		}, "nonfinite_param"},
	}
	for _, tc := range cases {
		m, _ := testMonitor(Config{})
		m.BindLayers([]string{"conv0/w", "conv0/b"})
		m.BeginPhase("train")
		tc.record(m)
		var uh *UnhealthyError
		if err := m.Check(); !errors.As(err, &uh) {
			t.Fatalf("%s: Check = %v, want trip", tc.name, err)
		} else if uh.Verdict.Reason != tc.reason {
			t.Fatalf("%s: reason = %q, want %q", tc.name, uh.Verdict.Reason, tc.reason)
		} else if uh.Verdict.Layer == "" {
			t.Fatalf("%s: verdict should name the layer", tc.name)
		}
	}
}

func TestRecordRoundAndDistillTripwires(t *testing.T) {
	m, _ := testMonitor(Config{})
	m.RecordRound(1, 0)
	if tripped(m) {
		t.Fatal("finite round norm should not trip")
	}
	m.RecordRound(2, 4)
	var uh *UnhealthyError
	if err := m.Check(); !errors.As(err, &uh) || uh.Verdict.Reason != "nonfinite_param" {
		t.Fatalf("Check = %v, want nonfinite_param", err)
	}

	m2, _ := testMonitor(Config{})
	m2.RecordDistill(1, math.Inf(1), 0, 0)
	if err := m2.Check(); !errors.As(err, &uh) || uh.Verdict.Reason != "nan_loss" {
		t.Fatalf("distill Check = %v, want nan_loss", err)
	}
}

func TestFirstVerdictWins(t *testing.T) {
	m, _ := testMonitor(Config{})
	m.BeginPhase("unlearn")
	m.RecordLoss(1, math.NaN())
	m.RecordLayer(0, 2, 2e9, 0, 1, 1, 0) // later grad explosion must not overwrite
	var uh *UnhealthyError
	if err := m.Check(); !errors.As(err, &uh) || uh.Verdict.Reason != "nan_loss" {
		t.Fatalf("Check = %v, want the FIRST verdict (nan_loss)", err)
	}
}

func TestResetClearsTripButSummaryIsSticky(t *testing.T) {
	m, pipe := testMonitor(Config{})
	m.RecordLoss(1, math.NaN())
	if m.Check() == nil {
		t.Fatal("want trip")
	}
	m.Reset()
	if tripped(m) {
		t.Fatal("Reset must clear the current trip")
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check after Reset = %v, want nil", err)
	}
	m.RecordLoss(2, 0.5) // healthy again

	s := m.Summary()
	if s == nil {
		t.Fatal("Summary is nil")
	}
	if !s.Healthy {
		t.Error("current state should be healthy after Reset")
	}
	if !s.Tripped || s.Trips != 1 || s.Verdict != "nan_loss" {
		t.Errorf("trip history must survive Reset: %+v", s)
	}
	if s.NaNEvents != 1 {
		t.Errorf("NaNEvents = %d, want 1", s.NaNEvents)
	}

	// The gauge recovered too.
	if v := gaugeValue(t, pipe, "quickdrop_health"); v != 1 {
		t.Errorf("quickdrop_health after Reset = %v, want 1", v)
	}
}

func gaugeValue(t *testing.T, pipe *telemetry.Pipeline, name string) float64 {
	t.Helper()
	s, ok := pipe.Registry.Summaries()[name]
	if !ok {
		t.Fatalf("gauge %s not registered", name)
	}
	return s.Sum
}

func TestSummaryExtremes(t *testing.T) {
	m, _ := testMonitor(Config{GradNormMax: 1e6, UpdateRatioMax: 100})
	m.BindLayers([]string{"w"})
	m.RecordLayer(0, 1, 10, 0, 2, 4, 0)  // ratio 0.5
	m.RecordLayer(0, 2, 150, 0, 3, 4, 0) // ratio 0.75
	m.RecordLayer(0, 3, 50, 0, 1, 4, 0)
	s := m.Summary()
	if s.MaxGradNorm != 150 {
		t.Errorf("MaxGradNorm = %v, want 150", s.MaxGradNorm)
	}
	if s.MaxUpdateRatio != 0.75 {
		t.Errorf("MaxUpdateRatio = %v, want 0.75", s.MaxUpdateRatio)
	}
	if s.Tripped || !s.Healthy {
		t.Errorf("healthy run summary: %+v", s)
	}
}

func TestSampleCadence(t *testing.T) {
	m := New(Config{SampleEvery: 4}, nil)
	var hits []int
	for i := 1; i <= 12; i++ {
		if m.Sample() {
			hits = append(hits, i)
		}
	}
	want := []int{4, 8, 12}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

// TestForkJoinReplaysInOrder: a fork samples its first call and every
// SampleEvery-th after it, latches nothing while it records, and the
// verdict follows the order forks are joined in, not the order they
// recorded in.
func TestForkJoinReplaysInOrder(t *testing.T) {
	var nilMon *Monitor
	if nilMon.Fork() != nil {
		t.Fatal("a nil monitor's fork should be nil")
	}
	nilMon.Join(nil)

	cfg := Config{SampleEvery: 4, LossSpikeFactor: 3, GradNormMax: 9.5}
	var hits []int
	f := New(cfg, nil).Fork()
	for i := 1; i <= 9; i++ {
		if f.Sample() {
			hits = append(hits, i)
		}
	}
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 5 || hits[2] != 9 {
		t.Fatalf("fork sampled calls %v, want [1 5 9]", hits)
	}

	// Client c's distill gradient norm reaches GradNormMax at step 10,
	// and its losses grow c²-fold: client 2 spikes at step 8.
	record := func(m *Monitor, client int) {
		for step := 0; step < 12; step++ {
			x := float64(client*100 + step)
			if m.Sample() {
				m.RecordLayer(client, x, float64(step), 0, 0.1, 1, 0)
			}
			m.RecordDistill(x, 0.5, float64(step), 0)
			m.RecordLoss(x, 1+float64(step*client*client))
		}
	}
	run := func(recordOrder []int) (*Monitor, Verdict) {
		m := New(cfg, nil)
		m.BindLayers([]string{"a", "b", "c"})
		m.BeginPhase("train")
		forks := make([]*Monitor, 3)
		for _, c := range recordOrder {
			forks[c] = m.Fork()
			record(forks[c], c)
		}
		if tripped(m) || tripped(forks[2]) {
			t.Fatal("recording on a fork latched a verdict")
		}
		for _, fork := range forks {
			m.Join(fork)
		}
		var uh *UnhealthyError
		if !errors.As(m.Check(), &uh) {
			t.Fatal("joined forks did not trip the watchdog")
		}
		return m, uh.Verdict
	}
	fwd, want := run([]int{0, 1, 2})
	if want.Reason != "grad_norm" || want.Layer != "distill" || want.Step != 10 {
		t.Fatalf("verdict %+v, want client 0's distill grad_norm at step 10", want)
	}
	rev, got := run([]int{2, 1, 0})
	if got != want {
		t.Fatalf("forks recorded in reverse: verdict %+v, want %+v", got, want)
	}
	if gs, ws := rev.Summary(), fwd.Summary(); *gs != *ws {
		t.Fatalf("forks recorded in reverse: summary %+v, want %+v", gs, ws)
	}
}

func TestHealthStatusSeries(t *testing.T) {
	m, pipe := testMonitor(Config{})
	status := func() float64 {
		s, ok := pipe.Registry.Summaries()["quickdrop_health"]
		if !ok {
			t.Fatal("quickdrop_health gauge not registered")
		}
		return s.Sum
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	got := []float64{status()}
	m.RecordLoss(1, math.NaN())
	_ = m.Check()
	got = append(got, status())
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("quickdrop_health after each Check = %v, want [1, 0]", got)
	}
}

// TestRecordPathsDoNotAllocate pins the hot-path contract: every
// Record* method and Sample are allocation-free both on a live monitor
// and on a nil one (health disabled).
func TestRecordPathsDoNotAllocate(t *testing.T) {
	live, _ := testMonitor(Config{SampleEvery: 1})
	live.BindLayers([]string{"w", "b"})
	live.BeginPhase("train")
	var nilMon *Monitor
	for _, tc := range []struct {
		name string
		m    *Monitor
	}{{"enabled", live}, {"disabled", nilMon}} {
		m := tc.m
		cases := []struct {
			name string
			fn   func()
		}{
			{"Sample", func() { m.Sample() }},
			{"RecordLoss", func() { m.RecordLoss(1, 0.5) }},
			{"RecordLayer", func() { m.RecordLayer(0, 1, 2, 0, 0.01, 1, 0) }},
			{"RecordDistill", func() { m.RecordDistill(1, 0.5, 2, 0) }},
			{"RecordRound", func() { m.RecordRound(1, 0) }},
			{"BeginPhase", func() { m.BeginPhase("train") }},
		}
		for _, c := range cases {
			c.fn() // warm up
			if n := testing.AllocsPerRun(100, c.fn); n != 0 {
				t.Errorf("%s %s allocates %v times per run, want 0", tc.name, c.name, n)
			}
		}
	}
}
