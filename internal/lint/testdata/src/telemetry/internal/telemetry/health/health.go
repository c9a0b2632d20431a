// Package health stubs the numerics health monitor API surface for the
// telemetry golden tests: latch-only record paths next to the warm-path
// Check/Reset/Summary calls that emit, lock, or allocate.
package health

// Monitor watches a run's numerics.
type Monitor struct {
	tick    uint64
	tripped bool
}

// Sample is the hot-path cadence gate (allocation-free).
func (m *Monitor) Sample() bool {
	if m == nil {
		return false
	}
	m.tick++
	return m.tick%16 == 0
}

// RecordLoss latches a loss observation (record path).
func (m *Monitor) RecordLoss(x, loss float64) {
	if m != nil && loss != loss {
		m.tripped = true
	}
}

// RecordLayer latches one layer's gradient statistics (record path).
func (m *Monitor) RecordLayer(layer int, x, gradNorm float64, gradBad int, updNorm, paramNorm float64, paramBad int) {
	if m != nil && gradBad > 0 {
		m.tripped = true
	}
}

// RecordDistill latches a distillation step observation (record path).
func (m *Monitor) RecordDistill(x, dist, gradNorm float64, bad int) {
	if m != nil && bad > 0 {
		m.tripped = true
	}
}

// RecordRound latches a round-boundary non-finite count (record path).
func (m *Monitor) RecordRound(x float64, bad int) {
	if m != nil && bad > 0 {
		m.tripped = true
	}
}

// BeginPhase re-baselines the loss EWMA (record path).
func (m *Monitor) BeginPhase(phase string) {}

// Tripped reads the latched verdict (allocation-free).
func (m *Monitor) Tripped() bool { return m != nil && m.tripped }

// Check emits the trip event and returns the verdict — warm path only.
func (m *Monitor) Check() error {
	if m == nil || !m.tripped {
		return nil
	}
	return &UnhealthyError{}
}

// Reset re-arms a tripped monitor — warm path only.
func (m *Monitor) Reset() {
	if m != nil {
		m.tripped = false
	}
}

// Summary allocates the manifest health block — reporting only.
func (m *Monitor) Summary() map[string]bool {
	return map[string]bool{"tripped": m.Tripped()}
}

// UnhealthyError is the watchdog verdict.
type UnhealthyError struct{}

// Error implements error.
func (e *UnhealthyError) Error() string { return "unhealthy" }
