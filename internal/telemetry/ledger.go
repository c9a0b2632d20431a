package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// MetricSummary is the point-in-time reduction of one instrument for
// the run manifest: counters carry Count, gauges Sum (the gauge's
// value), histograms both.
type MetricSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// Manifest is one run's ledger entry: enough provenance to reproduce
// the run and enough metric state to diff it against another run.
type Manifest struct {
	Stamp     string            `json:"stamp"`
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	Seed      int64             `json:"seed"`
	Config    map[string]string `json:"config,omitempty"`
	// Metrics summarizes every registry family series under its
	// exposition name (label value appended as name{label=value}),
	// including the quickdrop_*_accuracy gauges regression diffing
	// compares.
	Metrics map[string]MetricSummary `json:"metrics,omitempty"`
	// Audit is the deletion-request audit trail (one entry per served
	// forget request, with before/after forget-set accuracy). Empty for
	// batch tools; quickdropd's shutdown manifest carries the full run.
	Audit []AuditEntry `json:"audit,omitempty"`
	// Health is the numerics health summary of the run (nil when the
	// monitor was not enabled). A tripped watchdog here makes the run
	// unconditionally fail a ledger diff.
	Health *HealthSummary `json:"health,omitempty"`
}

// HealthSummary is the manifest's reduction of the numerics health
// monitor (internal/telemetry/health): whether the divergence watchdog
// ever tripped, its verdict, and the extreme values observed. It lives
// in this package (not health) so Manifest can embed it without an
// import cycle.
type HealthSummary struct {
	// Healthy reports the monitor's CURRENT state (a trip cleared by
	// Reset leaves it true again).
	Healthy bool `json:"healthy"`
	// Tripped is sticky: true if the watchdog ever tripped during the
	// run, even if later Reset — a tripped run never passes a diff.
	Tripped bool `json:"tripped"`
	// Verdict is the first trip's reason ("nan_grad", "loss_spike",
	// "grad_norm", …), empty while healthy.
	Verdict string `json:"verdict,omitempty"`
	// Phase names the training/unlearning phase the trip happened in.
	Phase string `json:"phase,omitempty"`
	// NaNEvents counts non-finite observations (elements may be many
	// per event); Trips counts watchdog trips.
	NaNEvents int64 `json:"nan_events"`
	Trips     int64 `json:"trips"`
	// MaxGradNorm / MaxUpdateRatio are the largest sampled per-layer
	// gradient L2 norm and update/param-norm ratio of the run.
	MaxGradNorm    float64 `json:"max_grad_norm"`
	MaxUpdateRatio float64 `json:"max_update_ratio"`
}

// NewStamp formats the telemetry clock as a filesystem-safe UTC stamp
// with nanosecond precision (collision-proof within one machine).
func NewStamp() string {
	t := time.Unix(0, Now()).UTC()
	return t.Format("20060102T150405.000000000Z")
}

// Summaries reduces every registered family to MetricSummary entries,
// keyed by exposition name (plus `{label="value"}` for vec series).
func (r *Registry) Summaries() map[string]MetricSummary {
	if r == nil {
		return nil
	}
	out := make(map[string]MetricSummary)
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			key := f.name + promLabel(f.label, s.labelValue)
			switch f.kind {
			case kindCounter:
				out[key] = MetricSummary{Count: s.c.Value()}
			case kindGauge:
				out[key] = MetricSummary{Sum: s.g.Value()}
			case kindHistogram:
				out[key] = MetricSummary{Count: s.h.Count(), Sum: s.h.Sum()}
			}
		}
	}
	return out
}

// BuildManifest snapshots the pipeline into a ledger entry. Config is
// the caller's flag/parameter map (copied); tool names the binary.
// Nil-safe: a nil pipeline yields a provenance-only manifest.
func BuildManifest(p *Pipeline, tool string, seed int64, config map[string]string) *Manifest {
	m := &Manifest{
		Stamp:     NewStamp(),
		Tool:      tool,
		GoVersion: runtime.Version(),
		Seed:      seed,
	}
	if len(config) > 0 {
		m.Config = make(map[string]string, len(config))
		for k, v := range config {
			m.Config[k] = v
		}
	}
	if p == nil {
		return m
	}
	m.Metrics = p.Registry.Summaries()
	m.Audit = p.Audit.Entries()
	return m
}

// WriteManifest writes the manifest to dir/<stamp>.json (creating dir)
// and returns the path.
func WriteManifest(dir string, m *Manifest) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, m.Stamp+".json")
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadManifest loads one ledger entry.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// DiffOptions are the regression thresholds. Zero values select the
// defaults.
type DiffOptions struct {
	// AccuracyDrop is the tolerated absolute drop in any *_accuracy
	// gauge (default 0.05). The forget-set gauge is inverted:
	// unlearning WANTS fset accuracy low, so a RISE beyond the
	// threshold is the regression.
	AccuracyDrop float64
	// TimeGrowPct is the tolerated percentage growth in any *_seconds
	// histogram sum (default 25).
	TimeGrowPct float64
	// GradNormGrowPct is the tolerated percentage growth of the run's
	// max sampled gradient norm (default 100; compared only when both
	// manifests carry a health block with a nonzero old value).
	GradNormGrowPct float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.AccuracyDrop == 0 {
		o.AccuracyDrop = 0.05
	}
	if o.TimeGrowPct == 0 {
		o.TimeGrowPct = 25
	}
	if o.GradNormGrowPct == 0 {
		o.GradNormGrowPct = 100
	}
	return o
}

// DiffEntry is one compared metric.
type DiffEntry struct {
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	Delta      float64 `json:"delta"`
	Regression bool    `json:"regression"`
	Reason     string  `json:"reason,omitempty"`
}

// hasSuffix avoids importing strings for two call sites.
func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// baseName strips a vec key's `{label="value"}` suffix so suffix
// matching sees the exposition name.
func baseName(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '{' {
			return s[:i]
		}
	}
	return s
}

// fsetAccuracy is the one accuracy gauge whose rise is the regression.
const fsetAccuracy = "quickdrop_fset_accuracy"

// Diff compares two manifests (old → new). It returns every compared
// metric plus whether any crossed its regression threshold: *_accuracy
// gauges may not drop (forget-set: may not rise) beyond AccuracyDrop,
// and *_seconds histogram sums may not grow beyond TimeGrowPct — but
// only where both runs actually observed the metric.
func Diff(oldM, newM *Manifest, opts DiffOptions) (entries []DiffEntry, regressed bool) {
	opts = opts.withDefaults()
	names := make([]string, 0, len(oldM.Metrics))
	for name := range oldM.Metrics {
		if _, ok := newM.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := oldM.Metrics[name], newM.Metrics[name]
		var e DiffEntry
		switch base := baseName(name); {
		case hasSuffix(base, "_accuracy"):
			e = DiffEntry{Metric: "gauge:" + name, Old: o.Sum, New: n.Sum, Delta: n.Sum - o.Sum}
			if base == fsetAccuracy {
				// Inverted: the unlearned model regaining forget-set
				// accuracy means the unlearning regressed.
				if e.Delta > opts.AccuracyDrop {
					e.Regression = true
					e.Reason = fmt.Sprintf("forget-set accuracy rose %.4f > %.4f threshold", e.Delta, opts.AccuracyDrop)
				}
			} else if -e.Delta > opts.AccuracyDrop {
				e.Regression = true
				e.Reason = fmt.Sprintf("accuracy dropped %.4f > %.4f threshold", -e.Delta, opts.AccuracyDrop)
			}
		case hasSuffix(base, "_seconds"):
			if o.Count == 0 || n.Count == 0 || o.Sum <= 0 {
				continue
			}
			e = DiffEntry{Metric: "sum:" + name, Old: o.Sum, New: n.Sum, Delta: n.Sum - o.Sum}
			growPct := (n.Sum - o.Sum) / o.Sum * 100
			if growPct > opts.TimeGrowPct {
				e.Regression = true
				e.Reason = fmt.Sprintf("wall time grew %.1f%% > %.1f%% threshold", growPct, opts.TimeGrowPct)
			}
		default:
			continue
		}
		entries = append(entries, e)
		regressed = regressed || e.Regression
	}

	entries, regressed = diffHealth(entries, regressed, oldM, newM, opts)
	return entries, regressed
}

// diffHealth appends the numerics-health comparisons. A new run that
// tripped the watchdog is an unconditional regression — a run whose
// model diverged never passes, whatever its accuracy numbers say.
// NaN-event growth and max-grad-norm growth beyond GradNormGrowPct are
// thresholded regressions like the others.
func diffHealth(entries []DiffEntry, regressed bool, oldM, newM *Manifest, opts DiffOptions) ([]DiffEntry, bool) {
	if newM.Health == nil {
		return entries, regressed
	}
	nh := newM.Health

	e := DiffEntry{Metric: "health:watchdog", New: float64(nh.Trips)}
	if oldM.Health != nil {
		e.Old = float64(oldM.Health.Trips)
	}
	e.Delta = e.New - e.Old
	if nh.Tripped {
		e.Regression = true
		e.Reason = "watchdog tripped: " + nh.Verdict
		if nh.Phase != "" {
			e.Reason += " in phase " + nh.Phase
		}
	}
	entries = append(entries, e)
	regressed = regressed || e.Regression

	if oldM.Health == nil {
		return entries, regressed
	}
	oh := oldM.Health

	e = DiffEntry{
		Metric: "health:nan_events",
		Old:    float64(oh.NaNEvents), New: float64(nh.NaNEvents),
		Delta: float64(nh.NaNEvents - oh.NaNEvents),
	}
	if nh.NaNEvents > oh.NaNEvents {
		e.Regression = true
		e.Reason = fmt.Sprintf("non-finite events rose %d → %d", oh.NaNEvents, nh.NaNEvents)
	}
	entries = append(entries, e)
	regressed = regressed || e.Regression

	if oh.MaxGradNorm > 0 {
		e = DiffEntry{
			Metric: "health:max_grad_norm",
			Old:    oh.MaxGradNorm, New: nh.MaxGradNorm,
			Delta: nh.MaxGradNorm - oh.MaxGradNorm,
		}
		growPct := (nh.MaxGradNorm - oh.MaxGradNorm) / oh.MaxGradNorm * 100
		if growPct > opts.GradNormGrowPct {
			e.Regression = true
			e.Reason = fmt.Sprintf("max grad norm grew %.1f%% > %.1f%% threshold", growPct, opts.GradNormGrowPct)
		}
		entries = append(entries, e)
		regressed = regressed || e.Regression
	}
	return entries, regressed
}
