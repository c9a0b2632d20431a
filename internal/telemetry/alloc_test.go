package telemetry

import "testing"

// The acceptance bar for the whole package: every record path that the
// training and distillation hot loops touch must be allocation-free —
// both with telemetry enabled and with it disabled (nil handles). The
// steady-state allocation tests of the fl, distill and nn training
// steps catch a step that calls anything else that allocates.

func TestRecordPathsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	p := NewPipeline(reg, 8)
	h := reg.Histogram("alloc_test_seconds", "", nil)
	c := reg.Counter("alloc_test_total", "")
	g := reg.Gauge("alloc_test_gauge", "")

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.01) }},
		{"CounterVec.At.Inc", func() { p.LocalSteps.At(3).Inc() }},
		{"Pipeline.LocalStep", func() { p.LocalStep(3, 32) }},
		{"Pipeline.Round", func() { p.EndRound(p.StartRound()) }},
		{"Pipeline.EndDistill", func() { p.EndDistill() }},
		{"Stopwatch", func() { _ = StartTimer().Elapsed() }},
		{"Pipeline.RecordAccuracy", func() { p.RecordAccuracy(0.9) }},
		{"Pipeline.RecordSplitAccuracy", func() { p.RecordSplitAccuracy(0.1, 0.8) }},
	}
	for _, tc := range cases {
		tc.fn() // warm up
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func TestDisabledRecordPathsDoNotAllocate(t *testing.T) {
	var p *Pipeline
	var c *Counter
	var h *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"nil Counter.Inc", func() { c.Inc() }},
		{"nil Histogram.Observe", func() { h.Observe(1) }},
		{"nil Pipeline.LocalStep", func() { p.LocalStep(0, 32) }},
		{"nil Pipeline round", func() { p.EndRound(p.StartRound()) }},
		{"nil Pipeline.EndDistill", func() { p.EndDistill() }},
		{"nil Pipeline.RecordAccuracy", func() { p.RecordAccuracy(1) }},
		{"nil Pipeline.RecordSplitAccuracy", func() { p.RecordSplitAccuracy(0, 1) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
