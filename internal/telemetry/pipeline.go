package telemetry

import "time"

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

// Pipeline bundles the pre-registered instruments for the FL /
// distillation / unlearning pipelines. One Pipeline is
// shared by every phase of a run; all record methods are safe for
// concurrent use (RunPhaseConcurrentRegistry's client workers record
// through the same handles) and are no-ops on a nil receiver.
type Pipeline struct {
	Registry *Registry
	// Audit is the deletion-request audit trail; the serving layer
	// appends one entry per forget request and BuildManifest folds the
	// log into the run ledger.
	Audit *AuditLog

	// FL substrate.
	Rounds       *Counter      // quickdrop_fl_rounds_total
	RoundSeconds *Histogram    // quickdrop_fl_round_seconds
	LocalSteps   *CounterVec   // quickdrop_fl_local_steps_total{client}
	Samples      *Counter      // quickdrop_fl_samples_total
	PhaseSeconds *HistogramVec // quickdrop_phase_seconds{phase}

	// In-situ distillation.
	DistillSteps *Counter // quickdrop_distill_steps_total

	// Unlearning workflow.
	UnlearnRequests *CounterVec // quickdrop_unlearn_requests_total{kind}

	// Latest evaluations (RecordAccuracy, RecordSplitAccuracy).
	evalAccuracy *Gauge // quickdrop_eval_accuracy
	fsetAccuracy *Gauge // quickdrop_fset_accuracy
	rsetAccuracy *Gauge // quickdrop_rset_accuracy
}

// RequestKindNames are the label values of UnlearnRequests, aligned
// with core.RequestKind (index kind-1).
var RequestKindNames = []string{"class", "client", "sample"}

// NewPipeline registers the instrument catalogue on reg and
// pre-registers the LocalSteps series of client IDs
// [0, min(clients, MaxClientSeries)). reg may be nil: NewPipeline(nil,
// …) returns a pipeline that records nothing but still provides working
// phase stopwatches and the audit log.
func NewPipeline(reg *Registry, clients int) *Pipeline {
	vecClients := clients
	if vecClients > MaxClientSeries {
		vecClients = MaxClientSeries
	}
	return &Pipeline{
		Registry: reg,
		Audit:    &AuditLog{},

		Rounds:       reg.Counter("quickdrop_fl_rounds_total", "Completed FedAvg rounds across all phases."),
		RoundSeconds: reg.Histogram("quickdrop_fl_round_seconds", "FedAvg round wall time in seconds.", nil),
		LocalSteps: reg.CounterVec("quickdrop_fl_local_steps_total",
			"Client-local SGD/SGA steps.", "client", IndexValues(vecClients)),
		Samples: reg.Counter("quickdrop_fl_samples_total", "Training samples consumed by local steps."),
		PhaseSeconds: reg.HistogramVec("quickdrop_phase_seconds",
			"Phase wall time in seconds.", "phase", PhaseNames, []float64{.01, .05, .1, .5, 1, 5, 15, 60, 300}),

		DistillSteps: reg.Counter("quickdrop_distill_steps_total", "In-situ gradient-matching updates."),

		UnlearnRequests: reg.CounterVec("quickdrop_unlearn_requests_total",
			"Unlearning requests served.", "kind", RequestKindNames),

		evalAccuracy: reg.Gauge("quickdrop_eval_accuracy", "Global model accuracy at the latest evaluation."),
		fsetAccuracy: reg.Gauge("quickdrop_fset_accuracy", "Forget-set accuracy at the latest split evaluation."),
		rsetAccuracy: reg.Gauge("quickdrop_rset_accuracy", "Retain-set accuracy at the latest split evaluation."),
	}
}

// PhaseTimer measures one pipeline phase. The stopwatch always runs —
// phase costs feed eval.Cost whether or not telemetry is enabled — but
// the histogram records only when a pipeline is attached.
type PhaseTimer struct {
	sw   Stopwatch
	p    *Pipeline
	name string
}

// StartPhase opens a phase timer. Works on a nil receiver: the
// returned timer still measures wall time (replacing the scattered
// `start := time.Now()` accounting sites) but records nothing.
func (p *Pipeline) StartPhase(name string) PhaseTimer {
	return PhaseTimer{sw: StartTimer(), p: p, name: name}
}

// Stop ends the phase, records its histogram, and returns the measured
// wall time.
func (t PhaseTimer) Stop() time.Duration {
	d := t.sw.Elapsed()
	if t.p != nil {
		t.p.PhaseSeconds.At(phaseIndex(t.name)).Observe(d.Seconds())
	}
	return d
}

// StartRound starts the round stopwatch. A nil pipeline reads no clock.
func (p *Pipeline) StartRound() Stopwatch {
	if p == nil {
		return 0
	}
	return StartTimer()
}

// EndRound records the round metrics, timing the round from sw.
func (p *Pipeline) EndRound(sw Stopwatch) {
	if p == nil {
		return
	}
	p.Rounds.Inc()
	p.RoundSeconds.Observe(sw.Elapsed().Seconds())
}

// LocalStep records one client-local update step. This sits on the
// training hot path: two atomic adds, no allocation.
func (p *Pipeline) LocalStep(client, batch int) {
	if p == nil {
		return
	}
	p.LocalSteps.At(client).Inc()
	p.Samples.Add(int64(batch))
}

// EndDistill records one finished gradient-matching step. Its wall
// time goes to Matcher.DDTime, which the Table 6 overhead column reads.
func (p *Pipeline) EndDistill() {
	if p == nil {
		return
	}
	p.DistillSteps.Inc()
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
