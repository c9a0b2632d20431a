package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestPipelineRecordsHierarchy(t *testing.T) {
	tick := fakeClock(t)
	reg := NewRegistry()
	tr := NewTracer(0)
	p := NewPipeline(reg, tr, 4)

	pt := p.StartPhase("train")
	rs := p.StartRound(0)
	cs := p.StartClient(0, 2)
	p.LocalStep(2, 16)
	p.LocalStep(2, 16)
	tick(time.Millisecond)
	p.EndClient(cs)
	ds := p.StartDistill(0, 2)
	tick(2 * time.Millisecond)
	p.EndDistill(ds, 2*time.Millisecond)
	p.EndRound(rs, 3)
	if d := pt.Stop(); d != 3*time.Millisecond {
		t.Fatalf("phase duration = %v, want 3ms", d)
	}
	p.Request(0)
	p.DropUpdate()
	p.Close()

	if got := p.Rounds.Value(); got != 1 {
		t.Errorf("Rounds = %d, want 1", got)
	}
	if got := p.LocalSteps.At(2).Value(); got != 2 {
		t.Errorf("LocalSteps[2] = %d, want 2", got)
	}
	if got := p.Samples.Value(); got != 32 {
		t.Errorf("Samples = %d, want 32", got)
	}
	if got := p.Participants.Value(); got != 3 {
		t.Errorf("Participants = %v, want 3", got)
	}
	if got := p.DistillSteps.Value(); got != 1 {
		t.Errorf("DistillSteps = %d, want 1", got)
	}
	if got := p.DistillSecondsSum.Value(); got != 0.002 {
		t.Errorf("DistillSecondsSum = %v, want 0.002", got)
	}
	if got := p.PhaseSeconds.At(phaseIndex("train")).Count(); got != 1 {
		t.Errorf("PhaseSeconds[train] = %d, want 1", got)
	}
	if got := p.UnlearnRequests.At(0).Value(); got != 1 {
		t.Errorf("UnlearnRequests[class] = %d, want 1", got)
	}
	if got := p.Dropped.Value(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}

	// Span hierarchy: experiment ← phase ← round ← {client, distill}.
	byKind := map[SpanKind]SpanRecord{}
	for _, rec := range tr.Snapshot() {
		byKind[rec.Kind] = rec
	}
	exp, ok := byKind[SpanExperiment]
	if !ok {
		t.Fatal("experiment span missing")
	}
	phase := byKind[SpanPhase]
	round := byKind[SpanRound]
	if phase.Parent != exp.ID {
		t.Errorf("phase parent = %d, want experiment %d", phase.Parent, exp.ID)
	}
	if round.Parent != phase.ID {
		t.Errorf("round parent = %d, want phase %d", round.Parent, phase.ID)
	}
	if c := byKind[SpanClientStep]; c.Parent != round.ID || c.Client != 2 {
		t.Errorf("client span wrong: %+v", c)
	}
	if d := byKind[SpanDistillStep]; d.Parent != round.ID {
		t.Errorf("distill parent = %d, want round %d", d.Parent, round.ID)
	}
}

func TestNilPipelineStopwatchStillWorks(t *testing.T) {
	tick := fakeClock(t)
	var p *Pipeline
	pt := p.StartPhase("train")
	tick(7 * time.Millisecond)
	if d := pt.Stop(); d != 7*time.Millisecond {
		t.Fatalf("nil-pipeline phase duration = %v, want 7ms", d)
	}
	// All other record paths must be silent no-ops.
	sp := p.StartRound(0)
	p.LocalStep(0, 8)
	p.EndClient(p.StartClient(0, 0))
	p.EndDistill(p.StartDistill(0, 0), time.Millisecond)
	p.EndRound(sp, 1)
	p.Request(1)
	p.DropUpdate()
	p.Close()
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
	baseline := strings.Count(exposition(NewPipeline(NewRegistry(), NewTracer(0), MaxClientSeries)), "\n")
	p := NewPipeline(NewRegistry(), NewTracer(0), 1_000_000)
	// Far more distinct clients than series report one round each.
	for c := 0; c < 10*MaxClientSeries; c++ {
		p.EndClient(p.StartClient(1, c*1000))
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
	p := NewPipeline(NewRegistry(), NewTracer(0), MaxClientSeries)
	for c := 0; c < MaxClientSeries; c++ {
		if p.LocalSteps.At(c) == nil {
			t.Fatalf("client %d series not pre-registered for a small cohort", c)
		}
	}
	if p.LocalSteps.At(MaxClientSeries) != nil {
		t.Fatal("a cohort of MaxClientSeries must register exactly that many series")
	}
}
