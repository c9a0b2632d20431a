package serve

import "quickdrop/internal/telemetry"

// serveMetrics bundles the daemon's instruments. They are the daemon's
// only totals: Stats reads them too, so /v1/status and /metrics report
// the same counters.
type serveMetrics struct {
	reg            *telemetry.Registry  // what /metrics serves
	batches        *telemetry.Counter   // quickdropd_batches_total
	batchRequests  *telemetry.Histogram // quickdropd_batch_requests
	publishSeconds *telemetry.Histogram // quickdropd_publish_seconds
	published      *telemetry.Counter   // quickdropd_requests_published_total
	failed         *telemetry.Counter   // quickdropd_requests_failed_total
	modelVersion   *telemetry.Gauge     // quickdropd_model_version
}

// newServeMetrics registers the daemon's instrument catalogue on the
// pipeline's registry, or on a private one when no pipeline (or one
// without a registry) is attached; /metrics serves that registry either
// way.
func newServeMetrics(p *telemetry.Pipeline) *serveMetrics {
	var reg *telemetry.Registry
	if p != nil {
		reg = p.Registry
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &serveMetrics{
		reg: reg,
		batches: reg.Counter("quickdropd_batches_total",
			"Coalesced unlearning batches the worker ran, refused ones included."),
		batchRequests: reg.Histogram("quickdropd_batch_requests",
			"Requests coalesced per batch.", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		publishSeconds: reg.Histogram("quickdropd_publish_seconds",
			"Snapshot publish wall time in seconds.", nil),
		published: reg.Counter("quickdropd_requests_published_total",
			"Forget requests completed and published."),
		failed: reg.Counter("quickdropd_requests_failed_total",
			"Forget requests rejected or failed."),
		modelVersion: reg.Gauge("quickdropd_model_version", "Latest published model version."),
	}
}
