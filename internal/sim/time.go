// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a classic event-calendar design: callbacks are scheduled at
// virtual timestamps and executed in (time, sequence) order, which gives a
// deterministic total order for events scheduled at the same instant. All
// model code in this repository — guest OS I/O stacks, devices, the
// hypervisor, and workload generators — runs on top of this kernel, while
// the IOrchestra control plane (store, bus, policies) is ordinary Go code
// that happens to be driven by simulated callbacks.
//
// The kernel itself is strictly single-threaded. Parallelism in experiment
// sweeps is obtained by running many independent Kernel instances across a
// worker pool (see internal/experiments), each seeded independently, so
// every replication remains reproducible.
//
// FIFO is the repository's one first-in first-out queue — request and
// run queues, wait queues, the host's round-robin backlogs and netstore's
// outbound and event queues are all this type. Its contract:
//
//   - Amortised O(1). A pop advances a head index instead of copying the
//     backlog down; a drained queue rewinds to the start of its array,
//     and a push that finds the array full slides the live elements over
//     the popped room when that room is at least half of it. A queue
//     filled and drained over and over stops allocating once its array
//     fits.
//   - Absolute indices. An element's index is the number of pushes before
//     it: Push returns it and At resolves it, so an index kept outside
//     the queue survives pops and slides.
//   - Nothing retained after a pop: the vacated slot is zeroed, so the
//     queue keeps no popped pointer alive.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. It is deliberately a distinct type from time.Duration
// so that wall-clock values cannot be mixed into the simulation by accident.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Forever is a sentinel time later than any reachable simulation instant.
const Forever Time = 1<<63 - 1

// String renders a Time with an adaptive unit, for logs and test failures.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// DurationOf converts floating-point seconds to a Duration, saturating at
// Forever for non-finite or overflowing inputs.
func DurationOf(seconds float64) Duration {
	ns := seconds * float64(Second)
	if !(ns < float64(Forever)) { // catches +Inf and NaN
		return Forever
	}
	if ns < 0 {
		return 0
	}
	return Duration(ns)
}
