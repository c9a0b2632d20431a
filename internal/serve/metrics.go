package serve

import "quickdrop/internal/telemetry"

// serveMetrics bundles the daemon's instruments. Every handle is
// nil-receiver-safe, so a server without telemetry records into no-op
// handles instead of branching at each site.
type serveMetrics struct {
	queueDepth     *telemetry.Gauge     // quickdropd_queue_depth
	batches        *telemetry.Counter   // quickdropd_batches_total
	batchRequests  *telemetry.Histogram // quickdropd_batch_requests
	publishSeconds *telemetry.Histogram // quickdropd_publish_seconds
	published      *telemetry.Counter   // quickdropd_requests_published_total
	failed         *telemetry.Counter   // quickdropd_requests_failed_total
	watchdogTrips  *telemetry.Counter   // quickdropd_watchdog_trips_total
	modelVersion   *telemetry.Gauge     // quickdropd_model_version
}

// newServeMetrics registers the daemon's instrument catalogue on the
// pipeline's registry (optional).
func newServeMetrics(p *telemetry.Pipeline) *serveMetrics {
	var reg *telemetry.Registry
	if p != nil {
		reg = p.Registry
	}
	return &serveMetrics{
		queueDepth: reg.Gauge("quickdropd_queue_depth", "Forget requests waiting to be coalesced."),
		batches:    reg.Counter("quickdropd_batches_total", "Coalesced unlearning batches executed."),
		batchRequests: reg.Histogram("quickdropd_batch_requests",
			"Requests coalesced per batch.", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		publishSeconds: reg.Histogram("quickdropd_publish_seconds",
			"Snapshot publish wall time in seconds.", nil),
		published: reg.Counter("quickdropd_requests_published_total",
			"Forget requests completed and published."),
		failed: reg.Counter("quickdropd_requests_failed_total",
			"Forget requests rejected or failed."),
		watchdogTrips: reg.Counter("quickdropd_watchdog_trips_total",
			"Batches refused publication by the numerics health watchdog."),
		modelVersion: reg.Gauge("quickdropd_model_version", "Latest published model version."),
	}
}
