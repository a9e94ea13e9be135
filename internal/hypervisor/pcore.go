package hypervisor

import (
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
)

// PCore is one physical core shared by the VCPUs pinned to it. It
// executes compute bursts FIFO at full speed — a work-conserving
// approximation of the Xen credit scheduler: idle co-located VCPUs cost
// nothing, busy ones interleave.
type PCore struct {
	k *sim.Kernel

	busy  bool
	queue sim.FIFO[pcoreBurst]
	util  metrics.Utilization
}

type pcoreBurst struct {
	d    sim.Duration
	done func()
}

// Slice is the preemption quantum: a long burst runs one slice, then
// yields to other runnable VCPUs round-robin (credit-scheduler style), so
// short interactive bursts are not stuck behind batch compute.
const Slice = 250 * sim.Microsecond

// NewPCore builds an idle core.
func NewPCore(k *sim.Kernel) *PCore { return &PCore{k: k} }

// Exec schedules a burst of duration d; done fires when it completes.
// Exec matches guest.ExecFunc so a VCPU can delegate to its pinned core.
func (c *PCore) Exec(d sim.Duration, done func()) {
	c.queue.Push(pcoreBurst{d: d, done: done})
	if !c.busy {
		c.dispatch()
	}
}

func (c *PCore) dispatch() {
	b, ok := c.queue.Pop()
	if !ok {
		c.busy = false
		c.util.SetBusy(c.k.Now(), false)
		return
	}
	c.busy = true
	c.util.SetBusy(c.k.Now(), true)
	run := b.d
	if run > Slice && c.queue.Len() > 0 {
		run = Slice
	}
	c.k.After(run, func() {
		if remaining := b.d - run; remaining > 0 {
			// Preempted: requeue the rest behind other runnables.
			c.queue.Push(pcoreBurst{d: remaining, done: b.done})
			c.dispatch()
			return
		}
		if b.done != nil {
			b.done()
		}
		c.dispatch()
	})
}

// UtilFraction reports the core's busy fraction.
func (c *PCore) UtilFraction(now sim.Time) float64 { return c.util.Fraction(now) }
