package telemetry

import (
	"sync/atomic"
	"time"
)

// MaxClientSeries caps the client label space of the per-client
// LocalSteps counter vector: cohorts up to this size get one series per
// client, and higher client IDs fall into the vector's silent-drop
// range, so a registry-scale cohort keeps the exposition O(1) in N.
const MaxClientSeries = 64

// PhaseNames are the pre-registered phase label values. Phase timers
// started under any other name fold into "other".
var PhaseNames = []string{
	"train", "unlearn", "recover", "relearn",
	"retrain", "calibrate", "prune", "scale", "finetune", "fedavg", "other",
}

// phaseIndex maps a phase name onto PhaseNames ("other" fallback).
// Linear scan over a dozen static strings: allocation-free and off the
// hot path (phases start a handful of times per run).
func phaseIndex(name string) int {
	for i, n := range PhaseNames {
		if n == name {
			return i
		}
	}
	return len(PhaseNames) - 1
}

// Pipeline bundles the pre-registered instruments and span plumbing
// for the FL / distillation / unlearning pipelines. One Pipeline is
// shared by every phase of a run; all record methods are safe for
// concurrent use (RunPhaseConcurrentRegistry's client workers record
// through the same handles) and are no-ops on a nil receiver.
type Pipeline struct {
	Registry *Registry
	Tracer   *Tracer
	// Audit is the deletion-request audit trail; the serving layer
	// appends one entry per forget request and BuildManifest folds the
	// log into the run ledger.
	Audit *AuditLog

	// FL substrate.
	Rounds       *Counter      // quickdrop_fl_rounds_total
	RoundSeconds *Histogram    // quickdrop_fl_round_seconds
	Participants *Gauge        // quickdrop_fl_round_participants
	LocalSteps   *CounterVec   // quickdrop_fl_local_steps_total{client}
	Samples      *Counter      // quickdrop_fl_samples_total
	Dropped      *Counter      // quickdrop_fl_dropped_updates_total
	Phases       *Counter      // quickdrop_phases_total
	PhaseSeconds *HistogramVec // quickdrop_phase_seconds{phase}

	// In-situ distillation.
	DistillSteps       *Counter   // quickdrop_distill_steps_total
	DistillStepSeconds *Histogram // quickdrop_distill_step_seconds
	DistillSecondsSum  *Gauge     // quickdrop_distill_seconds_sum

	// Unlearning workflow.
	UnlearnRequests *CounterVec // quickdrop_unlearn_requests_total{kind}

	// Latest evaluations (RecordAccuracy, RecordSplitAccuracy).
	evalAccuracy *Gauge // quickdrop_eval_accuracy
	fsetAccuracy *Gauge // quickdrop_fset_accuracy
	rsetAccuracy *Gauge // quickdrop_rset_accuracy

	exp      Span
	curPhase atomic.Uint64
	curRound atomic.Uint64
}

// RequestKindNames are the label values of UnlearnRequests, aligned
// with core.RequestKind (index kind-1).
var RequestKindNames = []string{"class", "client", "sample"}

// NewPipeline registers the instrument catalogue on reg, opens the
// experiment root span on tr, and pre-registers the LocalSteps series
// of client IDs [0, min(clients, MaxClientSeries)). Either argument may
// be nil (metrics-only or spans-only operation); NewPipeline(nil, nil,
// …) returns a pipeline that still provides working phase stopwatches.
func NewPipeline(reg *Registry, tr *Tracer, clients int) *Pipeline {
	vecClients := clients
	if vecClients > MaxClientSeries {
		vecClients = MaxClientSeries
	}
	p := &Pipeline{
		Registry: reg,
		Tracer:   tr,
		Audit:    &AuditLog{},

		Rounds:       reg.Counter("quickdrop_fl_rounds_total", "Completed FedAvg rounds across all phases."),
		RoundSeconds: reg.Histogram("quickdrop_fl_round_seconds", "FedAvg round wall time in seconds.", nil),
		Participants: reg.Gauge("quickdrop_fl_round_participants", "Clients selected in the most recent round."),
		LocalSteps: reg.CounterVec("quickdrop_fl_local_steps_total",
			"Client-local SGD/SGA steps.", "client", IndexValues(vecClients)),
		Samples: reg.Counter("quickdrop_fl_samples_total", "Training samples consumed by local steps."),
		Dropped: reg.Counter("quickdrop_fl_dropped_updates_total", "Client updates lost to injected failures."),
		Phases:  reg.Counter("quickdrop_phases_total", "Completed pipeline phases."),
		PhaseSeconds: reg.HistogramVec("quickdrop_phase_seconds",
			"Phase wall time in seconds.", "phase", PhaseNames, []float64{.01, .05, .1, .5, 1, 5, 15, 60, 300}),

		DistillSteps: reg.Counter("quickdrop_distill_steps_total", "In-situ gradient-matching updates."),
		DistillStepSeconds: reg.Histogram("quickdrop_distill_step_seconds",
			"Gradient-matching update wall time in seconds.", nil),
		DistillSecondsSum: reg.Gauge("quickdrop_distill_seconds_sum",
			"Accumulated distillation wall time in seconds (the paper's DD overhead)."),

		UnlearnRequests: reg.CounterVec("quickdrop_unlearn_requests_total",
			"Unlearning requests served.", "kind", RequestKindNames),

		evalAccuracy: reg.Gauge("quickdrop_eval_accuracy", "Global model accuracy at the latest evaluation."),
		fsetAccuracy: reg.Gauge("quickdrop_fset_accuracy", "Forget-set accuracy at the latest split evaluation."),
		rsetAccuracy: reg.Gauge("quickdrop_rset_accuracy", "Retain-set accuracy at the latest split evaluation."),
	}
	p.exp = tr.Start(SpanExperiment, "experiment", 0, -1, -1)
	return p
}

// Close ends the experiment root span.
func (p *Pipeline) Close() {
	if p == nil {
		return
	}
	p.exp.End()
}

// PhaseTimer measures one pipeline phase. The stopwatch always runs —
// phase costs feed eval.Cost whether or not telemetry is enabled — but
// the span and metrics record only when a pipeline is attached.
type PhaseTimer struct {
	sw   Stopwatch
	span Span
	p    *Pipeline
	name string
}

// StartPhase opens a phase timer. Works on a nil receiver: the
// returned timer still measures wall time (replacing the scattered
// `start := time.Now()` accounting sites) but records nothing.
func (p *Pipeline) StartPhase(name string) PhaseTimer {
	t := PhaseTimer{sw: StartTimer(), p: p, name: name}
	if p != nil {
		t.span = p.Tracer.Start(SpanPhase, name, p.exp.ID(), -1, -1)
		p.curPhase.Store(t.span.ID())
	}
	return t
}

// Stop ends the phase, records its span and histogram, and returns
// the measured wall time.
func (t PhaseTimer) Stop() time.Duration {
	d := t.sw.Elapsed()
	if t.p != nil {
		t.span.End()
		t.p.Phases.Inc()
		t.p.PhaseSeconds.At(phaseIndex(t.name)).Observe(d.Seconds())
	}
	return d
}

// StartRound opens a round span under the current phase.
func (p *Pipeline) StartRound(round int) Span {
	if p == nil {
		return Span{}
	}
	sp := p.Tracer.Start(SpanRound, "round", p.curPhase.Load(), round, -1)
	p.curRound.Store(sp.ID())
	return sp
}

// EndRound closes a round span and records the round metrics.
func (p *Pipeline) EndRound(sp Span, participants int) {
	if p == nil {
		return
	}
	d := sp.End()
	p.Rounds.Inc()
	p.RoundSeconds.Observe(d.Seconds())
	p.Participants.Set(float64(participants))
}

// StartClient opens a client-step span under the current round. Safe
// to call concurrently from per-client workers.
func (p *Pipeline) StartClient(round, client int) Span {
	if p == nil {
		return Span{}
	}
	return p.Tracer.Start(SpanClientStep, "client", p.curRound.Load(), round, client)
}

// EndClient closes a client-step span.
func (p *Pipeline) EndClient(sp Span) { sp.End() }

// LocalStep records one client-local update step. This sits on the
// training hot path: two atomic adds, no allocation.
func (p *Pipeline) LocalStep(client, batch int) {
	if p == nil {
		return
	}
	p.LocalSteps.At(client).Inc()
	p.Samples.Add(int64(batch))
}

// DropUpdate records a client update lost to an injected failure.
func (p *Pipeline) DropUpdate() {
	if p == nil {
		return
	}
	p.Dropped.Inc()
}

// StartDistill opens a distill-step span under the current round.
func (p *Pipeline) StartDistill(round, client int) Span {
	if p == nil {
		return Span{}
	}
	return p.Tracer.Start(SpanDistillStep, "distill", p.curRound.Load(), round, client)
}

// EndDistill closes a distill-step span and records the matching-step
// metrics; d is the caller's stopwatch measurement (the same value it
// accumulates into Matcher.DDTime).
func (p *Pipeline) EndDistill(sp Span, d time.Duration) {
	if p == nil {
		return
	}
	sp.End()
	p.DistillSteps.Inc()
	p.DistillStepSeconds.Observe(d.Seconds())
	p.DistillSecondsSum.Add(d.Seconds())
}

// Request records one unlearning request of the given kind index
// (core.RequestKind-1: 0 class, 1 client, 2 sample).
func (p *Pipeline) Request(kindIndex int) {
	if p == nil {
		return
	}
	p.UnlearnRequests.At(kindIndex).Inc()
}

// RecordAccuracy sets the global-accuracy gauge.
func (p *Pipeline) RecordAccuracy(acc float64) {
	if p == nil {
		return
	}
	p.evalAccuracy.Set(acc)
}

// RecordSplitAccuracy sets the forget-set and retain-set accuracy
// gauges.
func (p *Pipeline) RecordSplitAccuracy(fset, rset float64) {
	if p == nil {
		return
	}
	p.fsetAccuracy.Set(fset)
	p.rsetAccuracy.Set(rset)
}
