package device

import (
	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
)

// Degraded wraps a BlockDevice with a throttle stage that models a slow
// or failing RAID member: every request first passes a single-server FIFO
// whose service time is factor× the member's nominal full-bandwidth
// transfer time, capping effective throughput at CapacityBps()/factor.
//
// Deliberately, CapacityBps still reports the NOMINAL capacity — the
// host's spec-sheet belief. That divergence is the interesting fault: the
// flush policy's "one tenth of capacity" idleness test and the share
// arithmetic both reason from the nominal figure while the device
// underdelivers, exactly as a degraded-but-not-yet-failed member behaves
// in a real array.
type Degraded struct {
	k      *sim.Kernel
	inner  BlockDevice
	factor float64
	staged sim.FIFO[*Request] // awaiting the throttle stage; the head is in it
	busy   bool
}

// NewDegraded wraps inner with a slowdown factor (≥ 1; 1 means no
// degradation beyond serialization through the throttle stage).
func NewDegraded(k *sim.Kernel, inner BlockDevice, factor float64) *Degraded {
	if factor < 1 {
		factor = 1
	}
	return &Degraded{k: k, inner: inner, factor: factor}
}

// SetRecorder forwards the decision-trace recorder to the wrapped device
// when it supports per-request service tracing.
func (d *Degraded) SetRecorder(r *trace.Recorder) {
	if mr, ok := d.inner.(interface{ SetRecorder(*trace.Recorder) }); ok {
		mr.SetRecorder(r)
	}
}

// Submit implements BlockDevice: the request joins the throttle FIFO and
// is forwarded to the wrapped device once its slowed-down transfer time
// has elapsed.
func (d *Degraded) Submit(r *Request) {
	r.Submitted = d.k.Now()
	d.staged.Push(r)
	if !d.busy {
		d.advance()
	}
}

func (d *Degraded) advance() {
	r, ok := d.staged.Peek()
	if !ok {
		d.busy = false
		return
	}
	d.busy = true
	hold := sim.Duration(float64(r.Size) * d.factor / d.inner.CapacityBps() * float64(sim.Second))
	if hold < 1 {
		hold = 1
	}
	d.k.After(hold, func() {
		d.staged.Pop()
		d.inner.Submit(r)
		d.advance()
	})
}

// Name implements BlockDevice.
func (d *Degraded) Name() string { return d.inner.Name() }

// CapacityBps implements BlockDevice, reporting the wrapped device's
// nominal capacity (see the type comment for why degradation is hidden).
func (d *Degraded) CapacityBps() float64 { return d.inner.CapacityBps() }

// QueueLimit implements BlockDevice.
func (d *Degraded) QueueLimit() int { return d.inner.QueueLimit() }

// Pending implements BlockDevice, counting both staged and in-flight
// requests so congestion feedback still sees the real backlog.
func (d *Degraded) Pending() int { return d.staged.Len() + d.inner.Pending() }

// Congested implements BlockDevice against the combined backlog.
func (d *Degraded) Congested() bool {
	return d.Pending() >= d.QueueLimit()*CongestedOnNum/CongestedOnDen
}

// BandwidthBps implements BlockDevice (delivered, not nominal, rate).
func (d *Degraded) BandwidthBps(now sim.Time) float64 { return d.inner.BandwidthBps(now) }

// UtilFraction implements BlockDevice.
func (d *Degraded) UtilFraction(now sim.Time) float64 { return d.inner.UtilFraction(now) }

// Idle implements BlockDevice.
func (d *Degraded) Idle() bool { return d.staged.Len() == 0 && d.inner.Idle() }
