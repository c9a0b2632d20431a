package telemetry

import (
	"io"
	"math"
	"os"
	"testing"

	"quickdrop/internal/leakcheck"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m, lockProbes())) }

// lockProbes drives every method that locks one of the package's three
// mutexes, down each path that returns.
func lockProbes() []leakcheck.Lock {
	events := NewEventLog(io.Discard)
	failing := NewEventLog(failWriter{})
	unmarshalable := NewEventLog(io.Discard)
	reg := NewRegistry()
	audit := &AuditLog{}
	return []leakcheck.Lock{
		{Method: "EventLog.Emit", Mutex: "EventLog.mu", Mu: &events.mu, Call: func() { events.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (write error)", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { failing.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (sticky error)", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { failing.Emit(struct{}{}) }},
		{Method: "EventLog.Emit (marshal error)", Mutex: "EventLog.mu", Mu: &unmarshalable.mu, Call: func() { unmarshalable.Emit(math.NaN()) }},
		{Method: "EventLog.Err", Mutex: "EventLog.mu", Mu: &failing.mu, Call: func() { _ = failing.Err() }},
		{Method: "Registry.Counter", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() { reg.Counter("probe_total", "Probe.") }},
		{Method: "Registry.Counter (duplicate panics)", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() {
			defer func() { _ = recover() }()
			reg.Counter("probe_total", "Probe.")
		}},
		{Method: "Registry.WritePrometheus", Mutex: "Registry.mu", Mu: &reg.mu, Call: func() { _ = reg.WritePrometheus(io.Discard) }},
		{Method: "AuditLog.Append", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { audit.Append(AuditEntry{ID: 1}) }},
		{Method: "AuditLog.Entries", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { _ = audit.Entries() }},
		{Method: "AuditLog.Len", Mutex: "AuditLog.mu", Mu: &audit.mu, Call: func() { _ = audit.Len() }},
	}
}
