// Package hypervisor models the host side of the paper's platform: NUMA
// topology with pinned VCPUs, the paravirtual frontend/backend request
// path, a cgroup-style weighted proportional-share dispatcher in front of
// the shared device, and dedicated polling I/O cores running the paper's
// deficit-round-robin scheme (Algorithm 3).
package hypervisor

import (
	"sort"

	"iorchestra/internal/device"
	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
)

// Cgroup is a weighted proportional-share dispatcher in front of a block
// device, standing in for the blkio cgroup controller: each class (a VM in
// backend mode, an I/O core in dedicated mode) gets device bandwidth in
// proportion to its weight, enforced with byte-denominated deficit round
// robin.
type Cgroup struct {
	k   *sim.Kernel
	dev device.BlockDevice

	classes map[int]*cgClass
	order   []int // active class ids, round-robin cursor below
	cursor  int

	inFlight    int
	maxInFlight int
	quantumBase float64 // bytes granted per unit weight per round

	dispatched uint64

	// tracer, when set, records Q/D/C events for every request that
	// crosses the host dispatch path — the blktrace feed the paper's
	// monitoring module consumes. arrivals remembers queue timestamps so
	// completions can carry the host-path latency into the decision trace.
	tracer   *trace.Tracer
	arrivals map[*device.Request]sim.Time
}

type cgClass struct {
	id     int
	weight float64
	credit float64
	queue  *sim.FIFO[*device.Request]
	// bytes dispatched, for fairness assertions in tests
	bytes float64
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
	return &Cgroup{
		k:           k,
		dev:         dev,
		classes:     map[int]*cgClass{},
		maxInFlight: maxInFlight,
		quantumBase: 256 << 10,
	}
}

// SetTracer installs a blktrace-style event recorder on the dispatch path.
func (c *Cgroup) SetTracer(t *trace.Tracer) {
	c.tracer = t
	if t != nil && c.arrivals == nil {
		c.arrivals = map[*device.Request]sim.Time{}
	}
}

// SetWeight sets a class's proportional weight, creating the class if
// needed (weight 0 removes it once drained).
func (c *Cgroup) SetWeight(id int, w float64) {
	cl := c.classes[id]
	if cl == nil {
		cl = &cgClass{id: id, queue: sim.NewFIFO[*device.Request](0)}
		c.classes[id] = cl
		c.order = append(c.order, id)
		sort.Ints(c.order)
	}
	cl.weight = w
}

// Weight reports a class's weight (0 for unknown).
func (c *Cgroup) Weight(id int) float64 {
	if cl := c.classes[id]; cl != nil {
		return cl.weight
	}
	return 0
}

// Queued reports requests waiting in class queues.
func (c *Cgroup) Queued() int {
	n := 0
	for _, cl := range c.classes {
		n += cl.queue.Len()
	}
	return n
}

// InFlight reports requests outstanding at the device.
func (c *Cgroup) InFlight() int { return c.inFlight }

// Backlog reports queued plus in-flight requests.
func (c *Cgroup) Backlog() int { return c.Queued() + c.inFlight }

// Congested reports whether the host I/O path is overcrowded: total
// backlog (queued plus in flight) at or beyond 7/8 of the dispatch
// concurrency — the host-side analogue of the guest threshold, and the
// test the management module applies in Algorithm 2.
func (c *Cgroup) Congested() bool {
	return c.Queued()+c.inFlight >= c.maxInFlight*device.CongestedOnNum/device.CongestedOnDen
}

// BytesDispatched reports lifetime bytes dispatched for a class.
func (c *Cgroup) BytesDispatched(id int) float64 {
	if cl := c.classes[id]; cl != nil {
		return cl.bytes
	}
	return 0
}

// Submit enqueues r under class id (created with weight 1 when unknown).
func (c *Cgroup) Submit(id int, r *device.Request) {
	cl := c.classes[id]
	if cl == nil {
		c.SetWeight(id, 1)
		cl = c.classes[id]
	}
	cl.queue.Push(r)
	if c.tracer != nil {
		c.tracer.Record(trace.Queue, r.Owner, r.Op == device.Write, r.Size)
		c.arrivals[r] = c.k.Now()
	}
	c.pump()
}

// pump dispatches by DRR while capacity remains.
func (c *Cgroup) pump() {
	for c.inFlight < c.maxInFlight {
		cl := c.pick()
		if cl == nil {
			return
		}
		r, _ := cl.queue.Pop()
		cl.credit -= float64(r.Size)
		cl.bytes += float64(r.Size)
		c.inFlight++
		c.dispatched++
		if c.tracer != nil {
			c.tracer.Record(trace.Issue, r.Owner, r.Op == device.Write, r.Size)
		}
		done := r.Done
		r.Done = func() {
			c.inFlight--
			if c.tracer != nil {
				lat := c.k.Now() - c.arrivals[r]
				delete(c.arrivals, r)
				c.tracer.RecordComplete(r.Owner, r.Op == device.Write, r.Size, lat)
			}
			if done != nil {
				done()
			}
			c.pump()
		}
		c.dev.Submit(r)
	}
}

// pick chooses the next class with queued work and credit, replenishing
// credits round by round.
func (c *Cgroup) pick() *cgClass {
	if len(c.order) == 0 {
		return nil
	}
	// Two sweeps: first an attempt with existing credit, then one credit
	// replenishment for every backlogged class; a class with an empty
	// queue forfeits its credit (standard DRR).
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < len(c.order); i++ {
			cl := c.classes[c.order[c.cursor]]
			c.cursor = (c.cursor + 1) % len(c.order)
			if cl.queue.Len() == 0 {
				cl.credit = 0
				continue
			}
			if r, _ := cl.queue.Peek(); cl.credit >= float64(r.Size) {
				// Un-advance so repeated picks drain this class while
				// its credit lasts.
				c.cursor = (c.cursor - 1 + len(c.order)) % len(c.order)
				return cl
			}
		}
		if sweep == 0 {
			any := false
			for _, id := range c.order {
				cl := c.classes[id]
				if cl.queue.Len() > 0 {
					cl.credit += c.quantumBase * cl.weight
					// Guarantee progress for oversized requests.
					if r, _ := cl.queue.Peek(); cl.credit < float64(r.Size) && cl.weight > 0 {
						cl.credit = float64(r.Size)
					}
					any = true
				}
			}
			if !any {
				return nil
			}
		}
	}
	return nil
}
