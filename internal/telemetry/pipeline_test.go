package telemetry

import (
	"strings"
	"testing"
	"time"
)

// fakeClock installs a hand-cranked clock and returns an advance func.
func fakeClock(t *testing.T) func(d time.Duration) {
	t.Helper()
	var now int64
	restore := SetClockForTesting(func() int64 { return now })
	t.Cleanup(restore)
	return func(d time.Duration) { now += int64(d) }
}

// TestPipelineRecordsHierarchy drives one phase → round → local and
// distill steps and checks every level lands in its instrument, with
// the round and the phase each timed over what they enclose.
func TestPipelineRecordsHierarchy(t *testing.T) {
	tick := fakeClock(t)
	p := NewPipeline(NewRegistry(), 4)

	pt := p.StartPhase("train")
	tick(time.Millisecond)
	rs := p.StartRound()
	p.LocalStep(2, 16)
	p.LocalStep(2, 16)
	tick(2 * time.Millisecond)
	p.EndDistill()
	p.EndRound(rs)
	if d := pt.Stop(); d != 3*time.Millisecond {
		t.Fatalf("phase duration = %v, want 3ms", d)
	}
	p.Request(0)

	if got := p.Rounds.Value(); got != 1 {
		t.Errorf("Rounds = %d, want 1", got)
	}
	if got := p.RoundSeconds.Sum(); got != 0.002 {
		t.Errorf("RoundSeconds sum = %v, want 0.002", got)
	}
	if got := p.LocalSteps.At(2).Value(); got != 2 {
		t.Errorf("LocalSteps[2] = %d, want 2", got)
	}
	if got := p.Samples.Value(); got != 32 {
		t.Errorf("Samples = %d, want 32", got)
	}
	if got := p.DistillSteps.Value(); got != 1 {
		t.Errorf("DistillSteps = %d, want 1", got)
	}
	if got := p.PhaseSeconds.At(phaseIndex("train")).Sum(); got != 0.003 {
		t.Errorf("PhaseSeconds[train] sum = %v, want 0.003", got)
	}
	if got := p.UnlearnRequests.At(0).Value(); got != 1 {
		t.Errorf("UnlearnRequests[class] = %d, want 1", got)
	}
}

func TestNilPipelineStopwatchStillWorks(t *testing.T) {
	reads := 0
	restore := SetClockForTesting(func() int64 { reads++; return int64(reads) * int64(7*time.Millisecond) })
	defer restore()
	var p *Pipeline
	pt := p.StartPhase("train")
	if d := pt.Stop(); d != 7*time.Millisecond {
		t.Fatalf("nil-pipeline phase duration = %v, want 7ms", d)
	}
	// All other record paths must be silent no-ops that read no clock.
	rs := p.StartRound()
	p.LocalStep(0, 8)
	p.EndDistill()
	p.EndRound(rs)
	p.Request(1)
	if reads != 2 {
		t.Fatalf("nil pipeline read the clock %d times, want 2 (the phase stopwatch only)", reads)
	}
}

func TestPhaseIndexFallsBackToOther(t *testing.T) {
	if got, want := phaseIndex("unheard-of"), len(PhaseNames)-1; got != want {
		t.Fatalf("phaseIndex = %d, want %d (other)", got, want)
	}
	if PhaseNames[phaseIndex("unlearn")] != "unlearn" {
		t.Fatal("known phase should map to itself")
	}
}

func TestStopwatch(t *testing.T) {
	tick := fakeClock(t)
	sw := StartTimer()
	tick(42 * time.Millisecond)
	if d := sw.Elapsed(); d != 42*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 42ms", d)
	}
	if got := Now(); got != int64(42*time.Millisecond) {
		t.Fatalf("Now = %d, want %d", got, int64(42*time.Millisecond))
	}
}

// TestPipelineCapsClientSeries: a cohort above MaxClientSeries must not
// register per-client series eagerly; the exposition stays bounded no
// matter how many distinct clients report.
func TestPipelineCapsClientSeries(t *testing.T) {
	exposition := func(p *Pipeline) string {
		t.Helper()
		var sb strings.Builder
		if err := p.Registry.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	baseline := strings.Count(exposition(NewPipeline(NewRegistry(), MaxClientSeries)), "\n")
	p := NewPipeline(NewRegistry(), 1_000_000)
	// Far more distinct clients than series report one round each.
	for c := 0; c < 10*MaxClientSeries; c++ {
		p.LocalStep(c*1000, 8)
	}
	out := exposition(p)
	if n := strings.Count(out, "quickdrop_fl_local_steps_total{client="); n != MaxClientSeries {
		t.Fatalf("%d client series exposed, cap is %d", n, MaxClientSeries)
	}
	if n := strings.Count(out, "\n"); n != baseline {
		t.Fatalf("exposition grew to %d lines (baseline %d): not bounded", n, baseline)
	}
}

// TestSmallCohortKeepsEagerSeries pins the compatibility contract: at or
// below the cap, every client gets its eagerly registered series.
func TestSmallCohortKeepsEagerSeries(t *testing.T) {
	p := NewPipeline(NewRegistry(), MaxClientSeries)
	for c := 0; c < MaxClientSeries; c++ {
		if p.LocalSteps.At(c) == nil {
			t.Fatalf("client %d series not pre-registered for a small cohort", c)
		}
	}
	if p.LocalSteps.At(MaxClientSeries) != nil {
		t.Fatal("a cohort of MaxClientSeries must register exactly that many series")
	}
}
