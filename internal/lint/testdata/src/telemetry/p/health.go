// The health-monitor half of the telemetry rule: the sampling gate and
// latch-only Record* observations pass on hot paths; Check, Reset, and
// Summary — which emit events, lock, or allocate — are flagged.
package p

import "quickdrop/internal/telemetry/health"

// trainStep is the per-iteration worker of an instrumented loop.
//
//lint:hotpath
func trainStep(m *health.Monitor, loss float64) {
	m.BeginPhase("train") // ok: plain field writes
	if m.Sample() {       // ok: cadence gate
		m.RecordLoss(1, loss)              // ok: latch-only observation
		m.RecordLayer(0, 1, 2, 0, 1, 4, 0) // ok: latch-only observation
		m.RecordDistill(1, 0.5, 2, 0)      // ok: latch-only observation
	}
	watchdog(m)
}

func watchdog(m *health.Monitor) {
	m.RecordRound(1, 0) // ok: latch-only observation
	if m.Tripped() {    // ok: atomic verdict read
		_ = m.Check() // want "health call Check on the hot path of watchdog"
		m.Reset()     // want "health call Reset on the hot path of watchdog"
	}
}

// roundBoundary runs between rounds, outside any hot-path root, where
// the warm-path calls are legitimate.
func roundBoundary(m *health.Monitor) error {
	if err := m.Check(); err != nil {
		return err
	}
	_ = m.Summary() // ok: not hot-reachable
	return nil
}
