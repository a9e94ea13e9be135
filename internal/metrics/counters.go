package metrics

import (
	"iorchestra/internal/sim"
)

// Utilization integrates a busy/idle signal over virtual time, reporting
// the busy fraction — the instrument behind Fig. 10(c)'s CPU utilization
// and the device-idleness checks in the flush policy.
type Utilization struct {
	busySince sim.Time
	busy      bool
	busyTotal sim.Duration
	origin    sim.Time
	last      sim.Time
}

// SetBusy transitions the signal at time now.
func (u *Utilization) SetBusy(now sim.Time, busy bool) {
	if now > u.last {
		u.last = now
	}
	if busy == u.busy {
		return
	}
	if u.busy {
		u.busyTotal += now - u.busySince
	} else {
		u.busySince = now
	}
	u.busy = busy
}

// Fraction reports the busy fraction over [origin, now].
func (u *Utilization) Fraction(now sim.Time) float64 {
	total := now - u.origin
	if total <= 0 {
		return 0
	}
	busy := u.busyTotal
	if u.busy && now > u.busySince {
		busy += now - u.busySince
	}
	return float64(busy) / float64(total)
}

// Reset restarts the integration window at now, preserving current state.
func (u *Utilization) Reset(now sim.Time) {
	u.origin = now
	u.busyTotal = 0
	if u.busy {
		u.busySince = now
	}
	u.last = now
}

// WindowRate measures a rate over a sliding window of fixed length by
// remembering recent (time, amount) observations. The monitoring module
// uses it for per-device bandwidth estimates ("blktrace" style).
type WindowRate struct {
	window sim.Duration
	times  []sim.Time
	amts   []float64
	head   int
	count  int
	sum    float64
}

// NewWindowRate returns a rate estimator over the trailing window.
func NewWindowRate(window sim.Duration, capacity int) *WindowRate {
	if capacity <= 0 {
		capacity = 1024
	}
	return &WindowRate{
		window: window,
		times:  make([]sim.Time, capacity),
		amts:   make([]float64, capacity),
	}
}

// Add records amount at time now.
func (w *WindowRate) Add(now sim.Time, amount float64) {
	w.expire(now)
	if w.count == len(w.times) {
		// Grow in place preserving order.
		n := len(w.times)
		times := make([]sim.Time, 2*n)
		amts := make([]float64, 2*n)
		for i := 0; i < w.count; i++ {
			j := (w.head + i) % n
			times[i] = w.times[j]
			amts[i] = w.amts[j]
		}
		w.times, w.amts, w.head = times, amts, 0
	}
	tail := (w.head + w.count) % len(w.times)
	w.times[tail] = now
	w.amts[tail] = amount
	w.count++
	w.sum += amount
}

func (w *WindowRate) expire(now sim.Time) {
	cutoff := now - w.window
	for w.count > 0 && w.times[w.head] < cutoff {
		w.sum -= w.amts[w.head]
		w.head = (w.head + 1) % len(w.times)
		w.count--
	}
}

// Rate reports amount per second over the trailing window as of now.
func (w *WindowRate) Rate(now sim.Time) float64 {
	w.expire(now)
	s := w.window.Seconds()
	if s <= 0 {
		return 0
	}
	return w.sum / s
}

// Sum reports the raw amount within the window as of now.
func (w *WindowRate) Sum(now sim.Time) float64 {
	w.expire(now)
	return w.sum
}
