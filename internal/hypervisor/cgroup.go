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

	// The blktrace account of the dispatch path, the feed the paper's
	// monitoring module consumes. pathLat[owner] is the lifetime
	// completion count and summed host-path latency (arrival here to
	// completion) of one owner's requests, always kept: the G-state
	// verdict reads it. rec, when set, receives every request's
	// dev.queue, dev.issue and dev.complete records.
	pathLat map[int]*pathLatency
	rec     *trace.Recorder
}

type pathLatency struct {
	count uint64
	sum   sim.Duration
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
	return &Cgroup{k: k, dev: dev, maxInFlight: maxInFlight, pathLat: map[int]*pathLatency{}}
}

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

// Backlog reports queued plus in-flight requests.
func (c *Cgroup) Backlog() int { return c.drr.queued + c.inFlight }

// Congested reports whether the host I/O path is overcrowded: total
// backlog (queued plus in flight) at or beyond 7/8 of the dispatch
// concurrency — the host-side analogue of the guest threshold, and the
// test the management module applies in Algorithm 2.
func (c *Cgroup) Congested() bool {
	return c.Backlog() >= c.maxInFlight*device.CongestedOnNum/device.CongestedOnDen
}

// Submit enqueues r under class id (created with weight 1 when unknown).
func (c *Cgroup) Submit(id int, r *device.Request) {
	c.drr.push(c.class(id), r, c.k.Now())
	c.record(trace.KindDevQueue, r, 0)
	c.pump()
}

// PathLatency reports the completion count and summed host-path latency
// of owner's requests. Two snapshots give a windowed mean.
func (c *Cgroup) PathLatency(owner int) (count uint64, sum sim.Duration) {
	if pl := c.pathLat[owner]; pl != nil {
		return pl.count, pl.sum
	}
	return 0, 0
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
		c.record(trace.KindDevIssue, r, 0)
		done := r.Done
		r.Done = func() {
			c.inFlight--
			lat := c.k.Now() - q.at
			pl := c.pathLat[r.Owner]
			if pl == nil {
				pl = &pathLatency{}
				c.pathLat[r.Owner] = pl
			}
			pl.count++
			pl.sum += lat
			c.record(trace.KindDevComplete, r, lat)
			if done != nil {
				done()
			}
			c.pump()
		}
		c.dev.Submit(r)
	}
}

// record sends one of r's Q/D/C records to the recorder, if one is set.
func (c *Cgroup) record(kind trace.Kind, r *device.Request, latency sim.Duration) {
	if c.rec != nil {
		c.rec.Record(trace.Record{
			Kind: kind, Dom: r.Owner, Device: c.dev.Name(),
			Write: r.Op == device.Write, Size: r.Size, Latency: latency,
		})
	}
}
