package telemetry

import "time"

// nowNanos is the module's single wall-clock read. Every duration the
// system reports — phase costs, round histograms, distillation time —
// derives from this function.
func nowNanos() int64 {
	return time.Now().UnixNano()
}

// clock is swappable so tests can drive time by hand. It is read
// concurrently by record paths; swap it only before concurrent use.
var clock = nowNanos

// SetClockForTesting replaces the clock and returns a restore
// function. Test-only; never call while timers are live.
func SetClockForTesting(fn func() int64) (restore func()) {
	prev := clock
	clock = fn
	return func() { clock = prev }
}

// Now returns the telemetry clock reading in nanoseconds.
func Now() int64 { return clock() }

// Stopwatch marks a clock reading; Elapsed measures from it. It is the
// replacement for the ad-hoc `start := time.Now()` accounting sites:
// cost measurement works identically whether or not a metrics registry
// is attached.
type Stopwatch int64

// StartTimer reads the clock and returns a running stopwatch.
func StartTimer() Stopwatch { return Stopwatch(clock()) }

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Duration(clock() - int64(s)) }
