package hypervisor

import (
	"iorchestra/internal/device"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// IOCore is a dedicated polling core serving guest request buffers, in the
// style of Efficient and Scalable Paravirtual I/O (the paper's SDC
// baseline) extended with the paper's Algorithm 3: per-VM buffers are
// served deficit-round-robin with quanta Q_i = BWmax · S^{VMi}_{SKT}, so
// time on the polling core tracks each VM's IOrchestra-computed I/O share.
type IOCore struct {
	k   *sim.Kernel
	id  int // one core per socket: the id is the socket index
	out *Cgroup

	// costPerReq is the CPU cost of polling + processing one request;
	// perByte models the data-touch cost.
	costPerReq sim.Duration
	perByteNs  float64

	buffers map[store.DomID]*coreBuffer
	order   []store.DomID
	cursor  int
	busy    bool

	// Latency on the I/O core (arrival in buffer → handed to the device):
	// the L_i the co-scheduling weight formula divides by. latWin holds
	// summed latency seconds, cnt the sample count, over the same window.
	latWin  *metrics.WindowRate
	cnt     *metrics.WindowRate
	latHist *metrics.Histogram

	processed uint64
	bytes     float64
}

type coreBuffer struct {
	dom     store.DomID
	queue   *sim.FIFO[*pendingReq]
	credit  float64
	quantum float64
}

type pendingReq struct {
	r       *device.Request
	arrived sim.Time
}

// NewIOCore builds a polling core dispatching into out with class id =
// core id.
func NewIOCore(k *sim.Kernel, id int, out *Cgroup, costPerReq sim.Duration, coreBps float64) *IOCore {
	if costPerReq <= 0 {
		costPerReq = 3 * sim.Microsecond
	}
	if coreBps <= 0 {
		coreBps = 25e9
	}
	return &IOCore{
		k:          k,
		id:         id,
		out:        out,
		costPerReq: costPerReq,
		perByteNs:  float64(sim.Second) / coreBps,
		buffers:    map[store.DomID]*coreBuffer{},
		latWin:     metrics.NewWindowRate(sim.Second, 1024),
		cnt:        metrics.NewWindowRate(sim.Second, 1024),
		latHist:    metrics.NewHistogram(),
	}
}

// ID reports the core id.
func (c *IOCore) ID() int { return c.id }

// Processed reports lifetime requests handled.
func (c *IOCore) Processed() uint64 { return c.processed }

// Bytes reports lifetime bytes handled.
func (c *IOCore) Bytes() float64 { return c.bytes }

// Latency exposes the on-core latency histogram.
func (c *IOCore) Latency() *metrics.Histogram { return c.latHist }

// MeanLatency reports the trailing-window mean on-core latency in seconds
// (the L_i input to the weight redistribution formula). Zero-traffic cores
// report a small floor so the inverse-proportional formula stays finite.
func (c *IOCore) MeanLatency(now sim.Time) float64 {
	// The floor represents the expected on-core latency of a freshly
	// routed request, not zero: an idle core is attractive but not
	// infinitely so, which keeps the inverse-proportional weight formula
	// from slamming all load onto it at once.
	const floor = 100e-6
	n := c.cnt.Sum(now)
	if n == 0 {
		return floor
	}
	v := c.latWin.Sum(now) / n
	if v < floor {
		return floor
	}
	return v
}

func (c *IOCore) observe(lat sim.Duration) {
	c.latHist.Record(lat)
	c.latWin.Add(c.k.Now(), lat.Seconds())
	c.cnt.Add(c.k.Now(), 1)
}

// SetQuantum sets a VM's DRR quantum in bytes (Q_i = BWmax · S_SKT). The
// buffer is created on first use; quanta default to 256 KiB.
func (c *IOCore) SetQuantum(dom store.DomID, bytes float64) {
	b := c.buffer(dom)
	if bytes <= 0 {
		bytes = 256 << 10
	}
	b.quantum = bytes
}

// Quantum reports a VM's current quantum.
func (c *IOCore) Quantum(dom store.DomID) float64 { return c.buffer(dom).quantum }

func (c *IOCore) buffer(dom store.DomID) *coreBuffer {
	b := c.buffers[dom]
	if b == nil {
		b = &coreBuffer{dom: dom, queue: sim.NewFIFO[*pendingReq](0), quantum: 256 << 10}
		c.buffers[dom] = b
		c.order = append(c.order, dom)
	}
	return b
}

// Enqueue places a guest request in the VM's buffer on this core.
func (c *IOCore) Enqueue(dom store.DomID, r *device.Request) {
	c.buffer(dom).queue.Push(&pendingReq{r: r, arrived: c.k.Now()})
	if !c.busy {
		c.poll()
	}
}

// QueuedFor reports the backlog of one VM's buffer.
func (c *IOCore) QueuedFor(dom store.DomID) int {
	if b := c.buffers[dom]; b != nil {
		return b.queue.Len()
	}
	return 0
}

// Queued reports the total backlog on this core.
func (c *IOCore) Queued() int {
	n := 0
	for _, b := range c.buffers {
		n += b.queue.Len()
	}
	return n
}

// poll is one DRR service decision (Algorithm 3): pick the next buffer
// with work, replenish its credit on first visit this round, process its
// head request for the polling cost, hand it to the device, repeat.
func (c *IOCore) poll() {
	b := c.next()
	if b == nil {
		c.busy = false
		return
	}
	c.busy = true
	p, _ := b.queue.Pop()
	b.credit -= float64(p.r.Size)
	cost := c.costPerReq + sim.Duration(float64(p.r.Size)*c.perByteNs)
	c.k.After(cost, func() {
		c.processed++
		c.bytes += float64(p.r.Size)
		c.observe(c.k.Now() - p.arrived)
		c.out.Submit(c.id, p.r)
		c.poll()
	})
}

// next implements the credit scan: serve the current buffer while it has
// credit and work; otherwise advance, replenishing credits as rounds
// complete.
func (c *IOCore) next() *coreBuffer {
	if len(c.order) == 0 {
		return nil
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < len(c.order); i++ {
			b := c.buffers[c.order[c.cursor]]
			if b.queue.Len() == 0 {
				b.credit = 0 // Algorithm 3: empty buffer forfeits credit
				c.cursor = (c.cursor + 1) % len(c.order)
				continue
			}
			if p, _ := b.queue.Peek(); b.credit >= float64(p.r.Size) {
				return b
			}
			c.cursor = (c.cursor + 1) % len(c.order)
		}
		if sweep == 0 {
			any := false
			for _, id := range c.order {
				b := c.buffers[id]
				if b.queue.Len() > 0 {
					b.credit += b.quantum
					if p, _ := b.queue.Peek(); b.credit < float64(p.r.Size) {
						// A single request larger than the quantum must
						// still make progress (DRR anti-starvation).
						b.credit = float64(p.r.Size)
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
