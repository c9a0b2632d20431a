// Package p exercises the telemetry hot-path rule: record calls pass,
// everything else in the telemetry package is flagged when reachable
// from a //lint:hotpath root.
package p

import "quickdrop/internal/telemetry"

// step is the per-iteration worker of a training loop.
//
//lint:hotpath
func step(c *telemetry.Counter, tr *telemetry.Tracer) {
	c.Inc() // ok: record path
	sp := tr.Start(1)
	_ = sp.End() // ok: span record pair
	helper(tr)
}

func helper(tr *telemetry.Tracer) {
	_ = tr.Snapshot() // want "telemetry call Snapshot on the hot path of helper"
}

func cold(r *telemetry.Registry) *telemetry.Counter {
	return r.NewCounter("x") // ok: not reachable from a hot-path root
}

// warm registers its instrument before the loop body, with a reasoned
// exemption.
//
//lint:hotpath
func warm(r *telemetry.Registry) {
	c := r.NewCounter("warm") //lint:allow telemetry one-time registration before the loop body
	c.Inc()
}

// record drives the metrics from the loop body: the step counter and
// gauge writes pass; the per-evaluation gauge wrapper and the reporting
// reads are flagged.
//
//lint:hotpath
func record(p *telemetry.Pipeline, g *telemetry.Gauge, r *telemetry.Registry) {
	p.LocalStep(1, 32)    // ok: record path
	g.Set(0.5)            // ok: atomic store
	p.RecordAccuracy(0.9) // want "telemetry call RecordAccuracy on the hot path of record"
	readBack(r)
}

func readBack(r *telemetry.Registry) {
	_ = r.Summaries()              // want "telemetry call Summaries on the hot path of readBack"
	_ = telemetry.BuildManifest(r) // want "telemetry call BuildManifest on the hot path of readBack"
}

func report(r *telemetry.Registry) map[string]int64 {
	return telemetry.BuildManifest(r) // ok: not hot-reachable
}
