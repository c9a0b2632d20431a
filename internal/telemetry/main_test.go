package telemetry

import (
	"io"
	"math"
	"os"
	"testing"

	"quickdrop/internal/leakcheck"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m, lockProbes())) }

// lockProbes drives every method that locks one of the package's four
// mutexes, down each path that returns.
func lockProbes() []leakcheck.Lock {
	events := NewEventLog(io.Discard)
	failing := NewEventLog(failWriter{})
	unmarshalable := NewEventLog(io.Discard)
	reg := NewRegistry()
	tr := NewTracer(2)
	audit := &AuditLog{}
	return []leakcheck.Lock{
		{Method: "EventLog.Emit", Mutex: "EventLog.mu", Mu: &events.mu, Call: func() { events.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (write error)", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { failing.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (sticky error)", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { failing.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (marshal error)", Mutex: "EventLog.mu", Mu: &unmarshalable.mu, Call: func() { unmarshalable.Emit(math.NaN()) }},
		{Method: "EventLog.EmitSpans", Mutex: "EventLog.mu", Mu: &events.mu, Call: func() {
			tr.Start(SpanPhase, "probe", 0, -1, -1).End()
			events.EmitSpans(tr)
		}},
		{Method: "EventLog.Err", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { _ = failing.Err() }},
		{Method: "Registry.Counter", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() { reg.Counter("probe_total", "Probe.") }},
		{Method: "Registry.Counter (duplicate panics)", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() {
			defer func() { _ = recover() }()
			reg.Counter("probe_total", "Probe.")
		}},
		{Method: "Registry.WritePrometheus", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() { _ = reg.WritePrometheus(io.Discard) }},
		{Method: "Span.End", Mutex: "Tracer.mu", Mu: &tr.mu, Call: func() {
			for range 3 { // past the ring's capacity, into the overwrite branch
				tr.Start(SpanPhase, "probe", 0, -1, -1).End()
			}
		}},
		{Method: "Tracer.Len", Mutex: "Tracer.mu", Mu: &tr.mu, Call: func() { _ = tr.Len() }},
		{Method: "Tracer.Total", Mutex: "Tracer.mu", Mu: &tr.mu, Call: func() { _ = tr.Total() }},
		{Method: "Tracer.Snapshot", Mutex: "Tracer.mu", Mu: &tr.mu, Call: func() { _ = tr.Snapshot() }},
		{Method: "AuditLog.Append", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { audit.Append(AuditEntry{ID: 1}) }},
		{Method: "AuditLog.Entries", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { _ = audit.Entries() }},
		{Method: "AuditLog.Len", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { _ = audit.Len() }},
	}
}
