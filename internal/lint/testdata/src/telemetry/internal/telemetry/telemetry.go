// Package telemetry stubs the observability API surface for the
// telemetry golden tests: atomic record paths next to allocating
// constructors and snapshot/export calls.
package telemetry

// Counter is an atomic counter handle.
type Counter struct{ v int64 }

// Inc is a record path (allocation-free).
func (c *Counter) Inc() { c.v++ }

// Value is a read path (allocation-free).
func (c *Counter) Value() int64 { return c.v }

// Registry owns metric registration.
type Registry struct{ names []string }

// NewRegistry allocates a registry.
func NewRegistry() *Registry { return &Registry{} }

// NewCounter registers a metric — setup-time only.
func (r *Registry) NewCounter(name string) *Counter {
	r.names = append(r.names, name)
	return &Counter{}
}

// Span is a live span handle.
type Span struct{ id uint64 }

// Tracer records spans into a ring buffer.
type Tracer struct{ ring []uint64 }

// Start opens a span (record path).
func (t *Tracer) Start(kind int) Span { return Span{id: uint64(kind)} }

// End closes a span (record path).
func (s Span) End() int64 { return int64(s.id) }

// Snapshot copies the ring out — reporting only.
func (t *Tracer) Snapshot() []uint64 {
	out := make([]uint64, len(t.ring))
	copy(out, t.ring)
	return out
}

// Gauge is an atomically settable value.
type Gauge struct{ v float64 }

// Set is a record path (allocation-free).
func (g *Gauge) Set(v float64) { g.v = v }

// Summaries reduces every registered metric — reporting only.
func (r *Registry) Summaries() map[string]int64 {
	out := make(map[string]int64, len(r.names))
	for _, n := range r.names {
		out[n] = 0
	}
	return out
}

// Pipeline bundles record handles.
type Pipeline struct{ acc *Gauge }

// LocalStep counts one client-local step (record path).
func (p *Pipeline) LocalStep(client, batch int) {}

// RecordAccuracy sets the accuracy gauge — called per evaluation, not
// per step.
func (p *Pipeline) RecordAccuracy(acc float64) { p.acc.Set(acc) }

// BuildManifest snapshots the registry for the run ledger — reporting
// only.
func BuildManifest(r *Registry) map[string]int64 { return r.Summaries() }
