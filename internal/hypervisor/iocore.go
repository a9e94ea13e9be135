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

	drr drr // per-VM buffers, keyed by first use; quantum Q_i
	// serving is the request on the core, r nil while it idles: the core
	// handles one at a time, so its hand-off event is finish, bound once.
	serving  arrival
	finishFn func()

	// Latency on the I/O core (arrival in buffer → handed to the device):
	// the L_i the co-scheduling weight formula divides by. latWin holds
	// each request's latency in seconds over the trailing second.
	latWin *metrics.WindowRate

	processed uint64
	bytes     float64
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
	c := &IOCore{
		k:          k,
		id:         id,
		out:        out,
		costPerReq: costPerReq,
		perByteNs:  float64(sim.Second) / coreBps,
		latWin:     metrics.NewWindowRate(sim.Second, 1024),
	}
	c.finishFn = c.finish
	return c
}

// ID reports the core id.
func (c *IOCore) ID() int { return c.id }

// Processed reports lifetime requests handled.
func (c *IOCore) Processed() uint64 { return c.processed }

// Bytes reports lifetime bytes handled.
func (c *IOCore) Bytes() float64 { return c.bytes }

// MeanLatency reports the trailing-window mean on-core latency in seconds
// (the L_i input to the weight redistribution formula). Zero-traffic cores
// report a small floor so the inverse-proportional formula stays finite.
func (c *IOCore) MeanLatency(now sim.Time) float64 {
	// The floor represents the expected on-core latency of a freshly
	// routed request, not zero: an idle core is attractive but not
	// infinitely so, which keeps the inverse-proportional weight formula
	// from slamming all load onto it at once.
	const floor = 100e-6
	if v := c.latWin.Mean(now); v > floor {
		return v
	}
	return floor
}

// defaultQuantum is a buffer's DRR quantum until the policy sets one.
const defaultQuantum = 256 << 10

// SetQuantum sets a VM's DRR quantum in bytes (Q_i = BWmax · S_SKT). The
// buffer is created on first use; quanta default to 256 KiB.
func (c *IOCore) SetQuantum(dom store.DomID, bytes float64) {
	if bytes <= 0 {
		bytes = defaultQuantum
	}
	c.buffer(dom).quantum = bytes
}

// buffer returns dom's buffer, created on first use. Buffers are ordered
// by first use: the key is the number of buffers made before.
func (c *IOCore) buffer(dom store.DomID) *drrClass {
	if b := c.drr.byID[int(dom)]; b != nil {
		return b
	}
	return c.drr.add(int(dom), len(c.drr.byID), defaultQuantum)
}

// Enqueue places a guest request in the VM's buffer on this core.
func (c *IOCore) Enqueue(dom store.DomID, r *device.Request) {
	c.drr.push(c.buffer(dom), r, c.k.Now())
	if c.serving.r == nil {
		c.poll()
	}
}

// poll is one DRR service decision (Algorithm 3): pick the next buffer
// whose credit covers its head request and process that request for the
// polling cost; finish hands it to the device and polls again.
func (c *IOCore) poll() {
	b := c.drr.next()
	if b == nil {
		c.serving = arrival{}
		return
	}
	c.serving = c.drr.pop(b)
	c.k.After(c.costPerReq+sim.Duration(float64(c.serving.r.Size)*c.perByteNs), c.finishFn)
}

func (c *IOCore) finish() {
	p := c.serving
	c.processed++
	c.bytes += float64(p.r.Size)
	c.latWin.Add(c.k.Now(), (c.k.Now() - p.at).Seconds())
	c.out.Submit(c.id, p.r)
	c.poll()
}
