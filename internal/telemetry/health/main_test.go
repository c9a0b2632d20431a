package health

import (
	"io"
	"math"
	"os"
	"testing"

	"quickdrop/internal/leakcheck"
	"quickdrop/internal/telemetry"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m, lockProbes())) }

// lockProbes drives every method that locks Monitor.mu, down each path
// that returns: healthy, spiking and non-finite observations, and Check
// on a healthy and on a tripped monitor.
func lockProbes() []leakcheck.Lock {
	mon, _ := testMonitor(Config{Events: telemetry.NewEventLog(io.Discard)})
	fork := mon.Fork()
	probe := func(method string, call func()) leakcheck.Lock {
		return leakcheck.Lock{Method: "Monitor." + method, Mutex: "Monitor.mu", Mu: &mon.mu, Call: call}
	}
	return []leakcheck.Lock{
		probe("BindLayers", func() { mon.BindLayers([]string{"w"}) }),
		probe("BeginPhase", func() { mon.BeginPhase("probe") }),
		probe("Check (healthy)", func() { _ = mon.Check() }),
		probe("RecordLoss (warm-up and steady)", func() {
			for range ewmaWarmup + 1 {
				mon.RecordLoss(1, 1)
			}
		}),
		probe("RecordLoss (spike)", func() { mon.RecordLoss(1, 1e9) }),
		probe("RecordLoss (non-finite)", func() { mon.RecordLoss(1, math.NaN()) }),
		probe("RecordLayer", func() { mon.RecordLayer(0, 1, 1e9, 1, 1e9, 1, 1) }),
		probe("RecordDistill", func() { mon.RecordDistill(1, math.NaN(), 1e9, 1) }),
		probe("RecordRound", func() { mon.RecordRound(1, 1) }),
		probe("Check (tripped)", func() { _ = mon.Check() }),
		probe("Summary", func() { _ = mon.Summary() }),
		probe("Reset", mon.Reset),
		probe("Join", func() {
			fork.RecordLoss(1, 1)
			fork.RecordLayer(0, 1, 1, 0, 1, 1, 0)
			fork.RecordDistill(1, 1, 1, 0)
			mon.Join(fork)
		}),
	}
}
