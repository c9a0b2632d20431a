package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxClientSeries bounds how many fl_client_<i>_seconds series a
// pipeline keeps. Cohorts up to this size get one eagerly registered
// series per client (the original behavior); larger cohorts share a
// bounded slot table so telemetry memory stays O(MaxClientSeries) no
// matter how many clients are registered.
const MaxClientSeries = 64

// StragglerTopK is how many slots of the bounded table are shielded
// from eviction because they hold the largest per-round durations seen
// so far. Stragglers are exactly the clients worth keeping series for,
// and they are also the ones a recency-only policy would evict first
// (a slow client reports rarely).
const StragglerTopK = 8

// clientSlots maps an unbounded client-ID space onto MaxClientSeries
// series. Slots are claimed on first observation; once full, a new
// client evicts deterministically: among the slots NOT protected by
// StragglerTopK (largest max duration, slot index breaking ties), the
// victim is the slot with the smallest last-observed round, then the
// smaller max duration, then the larger owner ID.
type clientSlots struct {
	mu    sync.Mutex
	store *SeriesStore
	ids   []SeriesID // slot → series ID (-1 until claimed)
	owner []int      // slot → client ID owning the slot
	last  []float64  // slot → most recent x (round) observed
	maxY  []float64  // slot → largest duration observed
	slots map[int]int
}

func newClientSlots(store *SeriesStore, n int) *clientSlots {
	cs := &clientSlots{
		store: store,
		ids:   make([]SeriesID, 0, n),
		owner: make([]int, 0, n),
		last:  make([]float64, 0, n),
		maxY:  make([]float64, 0, n),
		slots: make(map[int]int, n),
	}
	return cs
}

const clientSeriesHelp = "Per-round local-steps wall time for one client (x: round)."

func clientSeriesName(client int) string {
	return fmt.Sprintf("fl_client_%d_seconds", client)
}

// append records one (round, duration) sample for a client, claiming or
// recycling a slot as needed.
func (cs *clientSlots) append(client int, x, y float64) {
	cs.mu.Lock()
	slot, ok := cs.slots[client]
	if !ok {
		if len(cs.ids) < cap(cs.ids) {
			slot = len(cs.ids)
			cs.ids = append(cs.ids, cs.store.Register(clientSeriesName(client), clientSeriesHelp, 0))
			cs.owner = append(cs.owner, client)
			cs.last = append(cs.last, x)
			cs.maxY = append(cs.maxY, y)
			cs.slots[client] = slot
		} else {
			slot = cs.evict()
			if slot < 0 { // every slot is straggler-protected: drop the point
				cs.mu.Unlock()
				return
			}
			delete(cs.slots, cs.owner[slot])
			cs.store.Recycle(cs.ids[slot], clientSeriesName(client), clientSeriesHelp)
			cs.owner[slot], cs.last[slot], cs.maxY[slot] = client, x, y
			cs.slots[client] = slot
		}
	} else {
		cs.last[slot] = x
		if y > cs.maxY[slot] {
			cs.maxY[slot] = y
		}
	}
	id := cs.ids[slot]
	cs.mu.Unlock()
	cs.store.Append(id, x, y)
}

// evict picks the victim slot under the deterministic policy, or -1 if
// every slot is protected. Called with cs.mu held.
func (cs *clientSlots) evict() int {
	protected := cs.stragglers()
	victim := -1
	for s := range cs.ids {
		if protected[s] {
			continue
		}
		if victim < 0 {
			victim = s
			continue
		}
		switch {
		case cs.last[s] != cs.last[victim]:
			if cs.last[s] < cs.last[victim] {
				victim = s
			}
		case cs.maxY[s] != cs.maxY[victim]:
			if cs.maxY[s] < cs.maxY[victim] {
				victim = s
			}
		case cs.owner[s] > cs.owner[victim]:
			victim = s
		}
	}
	return victim
}

// stragglers marks the StragglerTopK slots with the largest max
// durations (ties to the lower slot index). Called with cs.mu held.
func (cs *clientSlots) stragglers() map[int]bool {
	k := StragglerTopK
	if k >= len(cs.ids) {
		k = len(cs.ids) - 1 // always leave at least one evictable slot
	}
	out := make(map[int]bool, k)
	for picked := 0; picked < k; picked++ {
		best := -1
		for s := range cs.ids {
			if out[s] {
				continue
			}
			if best < 0 || cs.maxY[s] > cs.maxY[best] {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out[best] = true
	}
	return out
}

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
	Series   *SeriesStore
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

	exp      Span
	curPhase atomic.Uint64
	curRound atomic.Uint64
	evalSeq  atomic.Uint64

	// Flight-recorder series IDs, resolved once at construction so the
	// record paths are slice-indexed appends with no name lookups.
	sRound    SeriesID
	sPhase    SeriesID
	sAccuracy SeriesID
	sFSet     SeriesID
	sRSet     SeriesID
	sLoss     SeriesID
	sDistill  SeriesID
	sClient   []SeriesID // per-client round durations, indexed by client ID
	// slots replaces sClient for cohorts above MaxClientSeries: a bounded
	// table shared by all client IDs with straggler-protective eviction.
	slots *clientSlots
}

// RequestKindNames are the label values of UnlearnRequests, aligned
// with core.RequestKind (index kind-1).
var RequestKindNames = []string{"class", "client", "sample"}

// NewPipeline registers the instrument catalogue on reg, opens the
// experiment root span on tr, and pre-registers per-client series for
// client IDs [0, clients). Either argument may be nil (metrics-only or
// spans-only operation); NewPipeline(nil, nil, …) returns a pipeline
// that still provides working phase stopwatches.
func NewPipeline(reg *Registry, tr *Tracer, clients int) *Pipeline {
	// The per-client counter vector is capped like the series table:
	// above MaxClientSeries its label space stops growing with N and
	// higher client IDs fall into the CounterVec's silent-drop range.
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
	}
	p.exp = tr.Start(SpanExperiment, "experiment", 0, -1, -1)

	// The flight recorder: bounded per-run time series behind the same
	// instruments. Registered only when metrics are on (reg != nil) so a
	// fully disabled pipeline stays handle-free; every ID degrades to the
	// silent-drop invalid ID on a nil store.
	if reg != nil {
		s := NewSeriesStore()
		p.Series = s
		p.sRound = s.Register("fl_round_seconds", "FedAvg round wall time (x: cumulative round).", 0)
		p.sPhase = s.Register("phase_seconds", "Phase wall time (x: phase sequence).", 0)
		p.sAccuracy = s.Register("eval_accuracy", "Global model accuracy (x: caller's round).", 0)
		p.sFSet = s.Register("fset_accuracy", "Accuracy on the forget set (x: eval sequence).", 0)
		p.sRSet = s.Register("rset_accuracy", "Accuracy on the retain set (x: eval sequence).", 0)
		p.sLoss = s.Register("train_loss", "Client-local training loss (x: cumulative local step).", 0)
		p.sDistill = s.Register("distill_step_seconds", "Gradient-matching update wall time (x: cumulative step).", 0)
		if clients <= MaxClientSeries {
			p.sClient = make([]SeriesID, clients)
			for i := range p.sClient {
				p.sClient[i] = s.Register(clientSeriesName(i), clientSeriesHelp, 0)
			}
		} else {
			// Registry-scale cohort: per-client series would grow O(N).
			// A bounded slot table keeps the sampled participants plus the
			// top stragglers instead.
			p.slots = newClientSlots(s, MaxClientSeries)
		}
	} else {
		p.sRound, p.sPhase, p.sAccuracy, p.sFSet, p.sRSet, p.sLoss, p.sDistill = -1, -1, -1, -1, -1, -1, -1
	}
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
		t.p.Series.Append(t.p.sPhase, float64(t.p.Phases.Value()), d.Seconds())
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
	p.Series.Append(p.sRound, float64(p.Rounds.Value()), d.Seconds())
}

// StartClient opens a client-step span under the current round. Safe
// to call concurrently from per-client workers.
func (p *Pipeline) StartClient(round, client int) Span {
	if p == nil {
		return Span{}
	}
	return p.Tracer.Start(SpanClientStep, "client", p.curRound.Load(), round, client)
}

// EndClient closes a client-step span and feeds the client's series.
// The sp.tr guard matters: with a nil tracer StartClient hands back the
// zero Span, whose round/client fields would otherwise append a bogus
// (0,0) point to client 0's series.
func (p *Pipeline) EndClient(sp Span) {
	if p == nil {
		return
	}
	d := sp.End()
	if sp.tr == nil {
		return
	}
	if c := int(sp.client); c >= 0 && c < len(p.sClient) {
		p.Series.Append(p.sClient[c], float64(sp.round), d.Seconds())
	} else if c >= 0 && p.slots != nil {
		p.slots.append(c, float64(sp.round), d.Seconds())
	}
}

// LocalStep records one client-local update step. This sits on the
// training hot path (//lint:hotpath): two atomic adds, no allocation.
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
	p.Series.Append(p.sDistill, float64(p.DistillSteps.Value()), d.Seconds())
}

// Request records one unlearning request of the given kind index
// (core.RequestKind-1: 0 class, 1 client, 2 sample).
func (p *Pipeline) Request(kindIndex int) {
	if p == nil {
		return
	}
	p.UnlearnRequests.At(kindIndex).Inc()
}

// RecordAccuracy appends one global-accuracy sample at the caller's x
// coordinate (typically the round index).
func (p *Pipeline) RecordAccuracy(x, acc float64) {
	if p == nil {
		return
	}
	p.Series.Append(p.sAccuracy, x, acc)
}

// RecordSplitAccuracy appends one (forget-set, retain-set) accuracy
// pair at an internally sequenced x coordinate, so evaluation sites
// need no shared counter of their own.
func (p *Pipeline) RecordSplitAccuracy(fset, rset float64) {
	if p == nil {
		return
	}
	x := float64(p.evalSeq.Add(1))
	p.Series.Append(p.sFSet, x, fset)
	p.Series.Append(p.sRSet, x, rset)
}

// RecordLoss appends one client-local training-loss sample. This sits
// on the training hot path (//lint:hotpath): one ring-slot write under
// the series mutex, no allocation.
func (p *Pipeline) RecordLoss(x, loss float64) {
	if p == nil {
		return
	}
	p.Series.Append(p.sLoss, x, loss)
}
