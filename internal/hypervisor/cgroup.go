// Package hypervisor models the host side of the paper's platform: NUMA
// topology with pinned VCPUs, the paravirtual frontend/backend request
// path, a cgroup-style weighted proportional-share dispatcher in front of
// the shared device, and dedicated polling I/O cores running the paper's
// deficit-round-robin scheme (Algorithm 3).
package hypervisor

import (
	"iorchestra/internal/device"
	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
)

// cgQuantum is the credit a class of weight 1 gains per round, in bytes.
// A power of two, so Weight recovers a weight from a quantum exactly.
const cgQuantum = 256 << 10

// Cgroup is a weighted proportional-share dispatcher in front of a block
// device, standing in for the blkio cgroup controller: each class (a VM in
// backend mode, an I/O core in dedicated mode) gets device bandwidth in
// proportion to its weight, enforced with byte-denominated deficit round
// robin.
type Cgroup struct {
	k   *sim.Kernel
	dev device.BlockDevice

	drr drr // keyed by class id; quantum = cgQuantum × weight

	inFlight    int
	maxInFlight int

	// tracer, when set, records Q/D/C events for every request that
	// crosses the host dispatch path — the blktrace feed the paper's
	// monitoring module consumes. A completion carries the host-path
	// latency from its queued entry's arrival.
	tracer *trace.Tracer
}

// NewCgroup builds a dispatcher over dev. maxInFlight bounds requests
// outstanding at the device (default: half the device queue limit, so the
// device itself never hits its congestion threshold from one host).
func NewCgroup(k *sim.Kernel, dev device.BlockDevice, maxInFlight int) *Cgroup {
	if maxInFlight <= 0 {
		maxInFlight = dev.QueueLimit() / 2
		if maxInFlight < 8 {
			maxInFlight = 8
		}
	}
	return &Cgroup{k: k, dev: dev, maxInFlight: maxInFlight}
}

// SetTracer installs a blktrace-style event recorder on the dispatch path.
func (c *Cgroup) SetTracer(t *trace.Tracer) { c.tracer = t }

// SetWeight sets a class's proportional weight, creating the class if
// needed. A weight-0 class is never served.
func (c *Cgroup) SetWeight(id int, w float64) { c.class(id).quantum = cgQuantum * w }

// class returns class id, adding it with weight 1 when unknown. Classes
// are ordered by id.
func (c *Cgroup) class(id int) *drrClass {
	if cl := c.drr.byID[id]; cl != nil {
		return cl
	}
	return c.drr.add(id, id, cgQuantum)
}

// Weight reports a class's weight (0 for unknown).
func (c *Cgroup) Weight(id int) float64 {
	if cl := c.drr.byID[id]; cl != nil {
		return cl.quantum / cgQuantum
	}
	return 0
}

// Queued reports requests waiting in class queues.
func (c *Cgroup) Queued() int { return c.drr.queued }

// InFlight reports requests outstanding at the device.
func (c *Cgroup) InFlight() int { return c.inFlight }

// Backlog reports queued plus in-flight requests.
func (c *Cgroup) Backlog() int { return c.drr.queued + c.inFlight }

// Congested reports whether the host I/O path is overcrowded: total
// backlog (queued plus in flight) at or beyond 7/8 of the dispatch
// concurrency — the host-side analogue of the guest threshold, and the
// test the management module applies in Algorithm 2.
func (c *Cgroup) Congested() bool {
	return c.Backlog() >= c.maxInFlight*device.CongestedOnNum/device.CongestedOnDen
}

// BytesDispatched reports lifetime bytes dispatched for a class.
func (c *Cgroup) BytesDispatched(id int) float64 {
	if cl := c.drr.byID[id]; cl != nil {
		return cl.served
	}
	return 0
}

// Submit enqueues r under class id (created with weight 1 when unknown).
func (c *Cgroup) Submit(id int, r *device.Request) {
	c.drr.push(c.class(id), r, c.k.Now())
	if c.tracer != nil {
		c.tracer.Record(trace.Queue, r.Owner, r.Op == device.Write, r.Size)
	}
	c.pump()
}

// pump dispatches by DRR while capacity remains.
func (c *Cgroup) pump() {
	for c.inFlight < c.maxInFlight {
		cl := c.drr.next()
		if cl == nil {
			return
		}
		q := c.drr.pop(cl)
		r := q.r
		c.inFlight++
		if c.tracer != nil {
			c.tracer.Record(trace.Issue, r.Owner, r.Op == device.Write, r.Size)
		}
		done := r.Done
		r.Done = func() {
			c.inFlight--
			if c.tracer != nil {
				c.tracer.RecordComplete(r.Owner, r.Op == device.Write, r.Size, c.k.Now()-q.at)
			}
			if done != nil {
				done()
			}
			c.pump()
		}
		c.dev.Submit(r)
	}
}
