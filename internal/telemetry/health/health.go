// Package health is the numerics observability layer: a sampling
// monitor that watches gradient norms, update/parameter ratios, losses,
// and aggregate parameter norms for the signatures of a diverging or
// NaN-poisoned run, and a watchdog that turns those signatures into a
// typed error the unlearning pipeline treats like any phase failure.
//
// The design splits hot from warm:
//
//   - Record* methods run on training/unlearning hot paths. They are
//     nil-receiver-safe, allocation-free on the monitor itself (proven
//     by AllocsPerRun tests; a Fork's buffer grows by amortized
//     appends), and only LATCH a
//     verdict — they never format, emit, or construct errors.
//   - Check runs on warm per-round paths. It surfaces the latched
//     verdict as an *UnhealthyError (unwrapping to ErrUnhealthy), emits
//     the JSONL trip event, and flips the quickdrop_health gauge.
//
// Sampling: expensive per-layer statistics are only computed when
// Sample() returns true (every Config.SampleEvery-th call), so the
// steady-state overhead is a counter increment. The hard NaN/Inf
// tripwire on losses is exercised on every recorded step — a scalar
// self-comparison costs nothing.
//
// Clients that train side by side record through a Fork each: the fork
// buffers its client's observations with its own sampling cadence, and
// Join replays them into the monitor. Joining in a fixed client order
// makes the verdict independent of how the clients were scheduled.
//
// Everything here is read-only with respect to the model: a run with
// the monitor attached is bitwise identical to one without.
package health

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"quickdrop/internal/telemetry"
)

// ErrUnhealthy is the sentinel every watchdog error unwraps to. Callers
// gate on errors.Is(err, health.ErrUnhealthy) to distinguish "the
// numerics watchdog refused to continue" from other phase failures.
var ErrUnhealthy = errors.New("health: numerics watchdog tripped")

// Verdict describes why the watchdog tripped. All fields are plain
// values latched on the hot path (layer names come from the pre-bound
// table, so no formatting happens until the error is printed).
type Verdict struct {
	// Reason is one of "nan_loss", "loss_spike", "grad_norm",
	// "nan_grad", "update_ratio", "nonfinite_param".
	Reason string
	// Phase is the pipeline phase active at the trip.
	Phase string
	// Layer names the offending parameter for per-layer trips.
	Layer string
	// Value crossed Threshold at step/coordinate Step.
	Value     float64
	Threshold float64
	Step      float64
}

// String renders the verdict for audit trails and error messages.
func (v Verdict) String() string {
	s := v.Reason
	if v.Layer != "" {
		s += " at " + v.Layer
	}
	if v.Phase != "" {
		s += " in phase " + v.Phase
	}
	return s
}

// UnhealthyError carries the watchdog verdict; it unwraps to
// ErrUnhealthy.
type UnhealthyError struct {
	Verdict Verdict
}

func (e *UnhealthyError) Error() string {
	v := e.Verdict
	return fmt.Sprintf("health: watchdog tripped: %s (value %g, threshold %g, step %g)",
		v.String(), v.Value, v.Threshold, v.Step)
}

func (e *UnhealthyError) Unwrap() error { return ErrUnhealthy }

// Config are the monitor's thresholds. Zero values select defaults.
type Config struct {
	// SampleEvery is the cadence of the expensive per-layer statistics:
	// Sample() returns true once every SampleEvery calls (default 16).
	SampleEvery int
	// GradNormMax trips the watchdog when a sampled per-layer gradient
	// L2 norm exceeds it (default 1e3).
	GradNormMax float64
	// LossSpikeFactor trips when a recorded loss exceeds
	// max(EWMA, 1) × factor after the per-phase warm-up (default 20).
	// The floor keeps near-zero converged losses from turning ordinary
	// fluctuation into a spike.
	LossSpikeFactor float64
	// EWMAAlpha is the loss EWMA smoothing factor (default 0.1).
	EWMAAlpha float64
	// UpdateRatioMax trips when a sampled per-layer update-norm /
	// param-norm ratio exceeds it (default 50). Healthy early training
	// on small freshly-initialized layers reaches ratios near 1, so the
	// default only catches updates that dwarf the parameters — a
	// genuine divergence signature.
	UpdateRatioMax float64
	// Events receives one JSONL trip event per watchdog trip (nil
	// discards).
	Events *telemetry.EventLog
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.GradNormMax == 0 {
		c.GradNormMax = 1e3
	}
	if c.LossSpikeFactor == 0 {
		c.LossSpikeFactor = 20
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.1
	}
	if c.UpdateRatioMax == 0 {
		c.UpdateRatioMax = 50
	}
	return c
}

// ewmaWarmup is how many losses seed the per-phase EWMA before the
// spike detector arms. Unlearning is gradient ASCENT — loss rises by
// design — so BeginPhase re-baselines and the first few samples of
// every phase only feed the average.
const ewmaWarmup = 8

// Monitor is the numerics health monitor. All methods are safe for
// concurrent use and no-ops on a nil receiver, matching the telemetry
// handles it feeds. A Fork is the exception: it belongs to the one
// goroutine that trains its client, and only Sample and the Record*
// calls a client makes are meaningful on it.
type Monitor struct {
	cfg Config

	// Instruments (nil-safe handles when the pipeline has no registry).
	gHealth *telemetry.Gauge   // quickdrop_health (1 healthy, 0 tripped)
	cNaN    *telemetry.Counter // quickdrop_health_nan_events_total
	cTrips  *telemetry.Counter // quickdrop_health_watchdog_trips_total

	layers []string // verdict layer names, after BindLayers

	tick atomic.Uint64 // Sample() cadence counter

	mu        sync.Mutex
	phase     string
	ewma      float64
	warm      int
	tripped   bool // current trip (cleared by Reset)
	emitted   bool // current trip's event emitted
	verdict   Verdict
	everTrip  bool // any trip this run (survives Reset; feeds Summary)
	first     Verdict
	trips     int64
	nanEvents int64
	maxGrad   float64
	maxRatio  float64

	// forked marks a Fork: its Record* calls append to obs instead of
	// latching, and Join replays them.
	forked bool
	obs    []observation
}

// observation is one Record* call buffered by a fork.
type observation struct {
	kind  obsKind
	layer int
	x     float64
	a     float64 // loss | matching distance | gradient norm
	b     float64 // pixel-gradient norm | update norm
	c     float64 // parameter norm
	n     int     // non-finite gradient elements
	np    int     // non-finite parameter elements
}

type obsKind uint8

const (
	obsLoss obsKind = iota
	obsLayer
	obsDistill
)

// New builds a monitor recording through pipe (nil for a detached
// monitor that only watchdogs).
func New(cfg Config, pipe *telemetry.Pipeline) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{cfg: cfg}
	if pipe != nil {
		reg := pipe.Registry
		m.gHealth = reg.Gauge("quickdrop_health", "Numerics health: 1 healthy, 0 watchdog tripped.")
		m.cNaN = reg.Counter("quickdrop_health_nan_events_total", "Non-finite (NaN/Inf) observations.")
		m.cTrips = reg.Counter("quickdrop_health_watchdog_trips_total", "Divergence watchdog trips.")
	}
	m.gHealth.Set(1)
	return m
}

// BindLayers names the parameters (in layer order) that RecordLayer's
// layer index addresses, so a per-layer verdict carries the layer's
// name with no lookup on the hot path. Call once after the model is
// built; a trip on an unbound layer carries no name.
func (m *Monitor) BindLayers(names []string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.layers = append([]string(nil), names...)
	m.mu.Unlock()
}

// BeginPhase re-baselines the loss-spike detector for a new pipeline
// phase. Unlearning phases RAISE the loss by design, so the EWMA and
// its warm-up restart rather than carrying a training-phase baseline
// into gradient ascent. A latched trip is NOT cleared — it must still
// surface through Check.
func (m *Monitor) BeginPhase(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.phase = name
	m.ewma = 0
	m.warm = 0
	m.mu.Unlock()
}

// Sample reports whether this call lands on the sampling cadence: true
// once every Config.SampleEvery calls. Callers guard the expensive
// per-layer statistics behind it.
func (m *Monitor) Sample() bool {
	if m == nil {
		return false
	}
	return m.tick.Add(1)%uint64(m.cfg.SampleEvery) == 0
}

// Fork returns a recorder for one client's local steps (nil on a nil
// monitor). It takes the same Sample and Record* calls as the monitor
// but only buffers them, so forks for distinct clients may record
// concurrently without touching the monitor. A fork samples its first
// call and every SampleEvery-th after it, so every client's round is
// watched however few steps it runs, and the choice never depends on
// other clients. Hand the fork to Join once the client is done.
func (m *Monitor) Fork() *Monitor {
	if m == nil {
		return nil
	}
	f := &Monitor{cfg: m.cfg, forked: true}
	f.tick.Store(uint64(m.cfg.SampleEvery - 1))
	return f
}

// Join replays a fork's buffered observations into m, in the order they
// were recorded, as if they had been recorded on m directly. Call it
// for the forks of a round in a fixed client order: the EWMA spike
// detector and the first latched verdict then come out the same however
// the clients were scheduled. A nil fork is a no-op.
func (m *Monitor) Join(f *Monitor) {
	if m == nil || f == nil {
		return
	}
	for _, o := range f.obs {
		switch o.kind {
		case obsLoss:
			m.RecordLoss(o.x, o.a)
		case obsLayer:
			m.RecordLayer(o.layer, o.x, o.a, o.n, o.b, o.c, o.np)
		case obsDistill:
			m.RecordDistill(o.x, o.a, o.b, o.n)
		}
	}
	f.obs = f.obs[:0]
}

// latch records the first verdict of the current trip window. Called
// with m.mu held; everything stored is a plain value, so the hot path
// never allocates.
func (m *Monitor) latch(reason, layer string, value, threshold, step float64) {
	if m.tripped {
		return
	}
	m.tripped = true
	m.emitted = false
	m.trips++
	m.verdict = Verdict{
		Reason: reason, Phase: m.phase, Layer: layer,
		Value: value, Threshold: threshold, Step: step,
	}
	if !m.everTrip {
		m.everTrip = true
		m.first = m.verdict
	}
	m.cTrips.Inc()
}

// RecordLoss feeds one training/unlearning loss into the NaN tripwire
// and the EWMA spike detector. Hot path: call on every local step.
func (m *Monitor) RecordLoss(x, loss float64) {
	if m == nil {
		return
	}
	if m.forked {
		m.obs = append(m.obs, observation{kind: obsLoss, x: x, a: loss})
		return
	}
	m.mu.Lock()
	if loss != loss || math.IsInf(loss, 0) {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nan_loss", "", loss, 0, x)
		m.mu.Unlock()
		return
	}
	if m.warm < ewmaWarmup {
		m.warm++
		if m.warm == 1 {
			m.ewma = loss
		} else {
			m.ewma += m.cfg.EWMAAlpha * (loss - m.ewma)
		}
	} else {
		base := m.ewma
		if base < 1 {
			base = 1
		}
		limit := base * m.cfg.LossSpikeFactor
		if loss > limit {
			m.latch("loss_spike", "", loss, limit, x)
		}
		m.ewma += m.cfg.EWMAAlpha * (loss - m.ewma)
	}
	m.mu.Unlock()
}

// RecordLayer feeds one sampled per-layer observation from the
// optimizer: the gradient L2 norm (with its non-finite element count),
// the update L2 norm, and the parameter L2 norm (with its non-finite
// count). Hot path; callers gate it behind Sample().
func (m *Monitor) RecordLayer(layer int, x, gradNorm float64, gradNonFinite int, updNorm, paramNorm float64, paramNonFinite int) {
	if m == nil {
		return
	}
	if m.forked {
		m.obs = append(m.obs, observation{kind: obsLayer, layer: layer, x: x,
			a: gradNorm, b: updNorm, c: paramNorm, n: gradNonFinite, np: paramNonFinite})
		return
	}
	ratio := 0.0
	if paramNorm > 0 {
		ratio = updNorm / paramNorm
	}
	m.mu.Lock()
	name := ""
	if layer >= 0 && layer < len(m.layers) {
		name = m.layers[layer]
	}
	if gradNonFinite > 0 {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nan_grad", name, float64(gradNonFinite), 0, x)
	}
	if paramNonFinite > 0 {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nonfinite_param", name, float64(paramNonFinite), 0, x)
	}
	if gradNorm > m.cfg.GradNormMax {
		m.latch("grad_norm", name, gradNorm, m.cfg.GradNormMax, x)
	}
	if ratio > m.cfg.UpdateRatioMax {
		m.latch("update_ratio", name, ratio, m.cfg.UpdateRatioMax, x)
	}
	if gradNorm > m.maxGrad {
		m.maxGrad = gradNorm
	}
	if ratio > m.maxRatio {
		m.maxRatio = ratio
	}
	m.mu.Unlock()
}

// RecordDistill feeds one sampled gradient-matching observation: the
// matching distance and the pixel-gradient norm. Hot path; callers gate
// the norm computation behind Sample() and pass gradNorm < 0 when it
// was not sampled.
func (m *Monitor) RecordDistill(x, dist, gradNorm float64, nonFinite int) {
	if m == nil {
		return
	}
	if m.forked {
		m.obs = append(m.obs, observation{kind: obsDistill, x: x, a: dist, b: gradNorm, n: nonFinite})
		return
	}
	m.mu.Lock()
	if dist != dist || math.IsInf(dist, 0) {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nan_loss", "distill", dist, 0, x)
	}
	if nonFinite > 0 {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nan_grad", "distill", float64(nonFinite), 0, x)
	}
	if gradNorm > m.cfg.GradNormMax {
		m.latch("grad_norm", "distill", gradNorm, m.cfg.GradNormMax, x)
	}
	if gradNorm > m.maxGrad {
		m.maxGrad = gradNorm
	}
	m.mu.Unlock()
}

// RecordRound feeds the aggregated global model's non-finite parameter
// count after one FedAvg round. Warm path (once per round).
func (m *Monitor) RecordRound(x float64, nonFinite int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if nonFinite > 0 {
		m.nanEvents++
		m.cNaN.Inc()
		m.latch("nonfinite_param", "aggregate", float64(nonFinite), 0, x)
	}
	m.mu.Unlock()
}

// finiteOrZero maps NaN/±Inf to 0 for JSON encoding.
func finiteOrZero(v float64) float64 {
	if v != v || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// tripEvent is the JSONL record of one watchdog trip.
type tripEvent struct {
	Event     string  `json:"event"` // "health_trip"
	Reason    string  `json:"reason"`
	Phase     string  `json:"phase,omitempty"`
	Layer     string  `json:"layer,omitempty"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Step      float64 `json:"step"`
}

// Check is the warm-path gate: it returns nil while healthy, and the
// latched *UnhealthyError once the watchdog has tripped. The first
// Check after a trip emits the JSONL event and flips the health gauge;
// phase runners call it once per round and abort on error.
func (m *Monitor) Check() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	if !m.tripped {
		m.mu.Unlock()
		m.gHealth.Set(1)
		return nil
	}
	v := m.verdict
	emit := !m.emitted
	m.emitted = true
	m.mu.Unlock()
	if emit {
		m.gHealth.Set(0)
		// encoding/json rejects non-finite numbers, and a NaN trip's
		// Value IS non-finite: zero it (the reason field already says
		// what the value was).
		m.cfg.Events.Emit(tripEvent{
			Event: "health_trip", Reason: v.Reason, Phase: v.Phase,
			Layer: v.Layer, Value: finiteOrZero(v.Value),
			Threshold: finiteOrZero(v.Threshold), Step: v.Step,
		})
	}
	return &UnhealthyError{Verdict: v}
}

// Reset clears the current trip so the monitor can watch the next
// batch after the caller has restored a known-good model. Cumulative
// counters (trips, non-finite events, extremes) survive — the run's
// Summary still records that a trip happened.
func (m *Monitor) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.tripped = false
	m.emitted = false
	m.verdict = Verdict{}
	m.ewma = 0
	m.warm = 0
	m.mu.Unlock()
	m.gHealth.Set(1)
}

// Summary reduces the monitor for the run-ledger manifest. Healthy is
// the CURRENT state; Tripped is sticky across Reset so a run that ever
// destroyed a model never diffs clean.
func (m *Monitor) Summary() *telemetry.HealthSummary {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &telemetry.HealthSummary{
		Healthy:        !m.tripped,
		Tripped:        m.everTrip,
		NaNEvents:      m.nanEvents,
		Trips:          m.trips,
		MaxGradNorm:    m.maxGrad,
		MaxUpdateRatio: m.maxRatio,
	}
	if m.everTrip {
		s.Verdict = m.first.Reason
		s.Phase = m.first.Phase
	}
	return s
}
