// Package telemetry is the observability subsystem for the QuickDrop
// reproduction: a stdlib-only, allocation-free metrics registry
// (counters, gauges, fixed-bucket histograms with pre-registered label
// series), the deletion-request audit log, run-ledger manifests with
// regression diffing, and three exporters (Prometheus text exposition
// and pprof over HTTP, and a deterministic JSONL event log). Every
// metric it exports names its reader in DESIGN.md "Who reads each
// signal".
//
// Three contracts govern the package (see DESIGN.md "Observability"):
//
//  1. Record paths never allocate. Counter.Add, Gauge.Set,
//     Histogram.Observe, CounterVec.At and HistogramVec.At are guarded by
//     testing.AllocsPerRun, and the steady-state allocation tests of
//     the training step (fl, distill, nn) fail if a step calls anything
//     that allocates.
//  2. Disabled telemetry is free. Every handle is nil-receiver-safe: a
//     nil *Pipeline, *Counter or *Histogram turns the whole record path
//     into an early return with no clock read.
//  3. Wall-clock readings never feed back into the numerics. The
//     package is the module's sole wall-clock authority; timings flow
//     only into reports, so runs stay bitwise deterministic with
//     telemetry on or off (fl's TestTelemetryDoesNotPerturbTraining).
package telemetry
