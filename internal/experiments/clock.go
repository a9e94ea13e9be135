package experiments

import "time"

// Stopwatch measures elapsed wall time for progress lines in the
// experiment binaries. It lives here so cmd/experiments never calls
// time.Now itself: the determinism vet pass bans wall-clock reads across
// the simulation and its drivers, and elapsed-time reporting is the one
// legitimate wall-clock consumer.
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins timing.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed reports wall time since StartStopwatch.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
