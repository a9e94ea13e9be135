// Package guest models a guest VM's operating system as the paper's
// policies see it: VCPUs executing compute bursts, processes with I/O
// weights, and virtual disks combining a page cache with a block-layer
// queue that dispatches into a paravirtual frontend supplied by the host.
package guest

import (
	"fmt"
	"sort"

	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// Config describes a guest VM.
type Config struct {
	// ID is the domain id (must be unique per host, > 0).
	ID store.DomID
	// VCPUs is the virtual CPU count.
	VCPUs int
	// MemBytes is guest memory; it bounds page-cache budgets.
	MemBytes int64
	// CacheHitFrac is the probability a read is served from the page
	// cache without device I/O (0 for the cold, data-intensive workloads
	// the paper studies).
	CacheHitFrac float64
}

// Guest is one VM.
type Guest struct {
	k   *sim.Kernel
	cfg Config
	rng *stats.Stream

	vcpus  []*VCPU
	vdisks map[string]*VDisk
	names  []string // vdisk names in creation order
	procs  []*Process
	nextPr int
}

// New builds a guest; disks are attached by the host via AddDisk.
func New(k *sim.Kernel, cfg Config, rng *stats.Stream) *Guest {
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 1 << 30
	}
	g := &Guest{k: k, cfg: cfg, rng: rng, vdisks: map[string]*VDisk{}}
	for i := 0; i < cfg.VCPUs; i++ {
		g.vcpus = append(g.vcpus, &VCPU{g: g, idx: i, share: 1})
	}
	return g
}

// ID reports the domain id.
func (g *Guest) ID() store.DomID { return g.cfg.ID }

// MemBytes reports configured guest memory.
func (g *Guest) MemBytes() int64 { return g.cfg.MemBytes }

// NumVCPUs reports the VCPU count.
func (g *Guest) NumVCPUs() int { return len(g.vcpus) }

// VCPU returns the i-th virtual CPU.
func (g *Guest) VCPU(i int) *VCPU { return g.vcpus[i] }

// ExecFunc executes a compute burst on behalf of a VCPU; the host installs
// one per VCPU to route bursts through the pinned physical core.
type ExecFunc func(d sim.Duration, done func())

// VCPU models one virtual CPU as a FIFO run queue of compute bursts. The
// host sets Socket at placement time; when Exec is installed, burst
// execution is delegated to the physical core (which serializes busy
// co-located VCPUs), otherwise bursts run locally scaled by the share
// factor.
type VCPU struct {
	g      *Guest
	idx    int
	Socket int
	// Exec, when non-nil, executes bursts on the pinned physical core.
	Exec ExecFunc

	busy  bool
	queue sim.FIFO[burst]
	share float64 // execution speed multiplier when Exec is nil
	util  metrics.Utilization
}

type burst struct {
	d    sim.Duration
	done func()
}

// Index reports the VCPU index within its guest.
func (v *VCPU) Index() int { return v.idx }

// SetShare sets the physical-core share (0 < s <= 1); bursts already
// executing are unaffected, subsequent ones run proportionally slower.
func (v *VCPU) SetShare(s float64) {
	if s <= 0 {
		s = 0.01
	}
	if s > 1 {
		s = 1
	}
	v.share = s
}

// Share reports the current physical-core share.
func (v *VCPU) Share() float64 { return v.share }

// UtilFraction reports the VCPU's busy fraction.
func (v *VCPU) UtilFraction(now sim.Time) float64 { return v.util.Fraction(now) }

// Run schedules a compute burst of duration d (at full-core speed); done
// fires when it finishes.
func (v *VCPU) Run(d sim.Duration, done func()) {
	v.queue.Push(burst{d: d, done: done})
	if !v.busy {
		v.dispatch()
	}
}

func (v *VCPU) dispatch() {
	b, ok := v.queue.Pop()
	if !ok {
		v.busy = false
		v.util.SetBusy(v.g.k.Now(), false)
		return
	}
	v.busy = true
	v.util.SetBusy(v.g.k.Now(), true)
	finish := func() {
		if b.done != nil {
			b.done()
		}
		v.dispatch()
	}
	if v.Exec != nil {
		v.Exec(b.d, finish)
		return
	}
	wall := sim.Duration(float64(b.d) / v.share)
	v.g.k.After(wall, finish)
}

// Process is a schedulable entity with an I/O weight; Sec. 3.3's
// co-scheduling distributes process weights across sockets.
type Process struct {
	id       int
	g        *Guest
	vcpu     *VCPU
	IOWeight float64
}

// NewProcess creates a process with the given I/O weight, assigned to
// VCPUs round-robin.
func (g *Guest) NewProcess(ioWeight float64) *Process {
	p := &Process{id: len(g.procs), g: g, vcpu: g.vcpus[g.nextPr%len(g.vcpus)], IOWeight: ioWeight}
	g.nextPr++
	g.procs = append(g.procs, p)
	return p
}

// Processes returns all processes.
func (g *Guest) Processes() []*Process { return g.procs }

// ID reports the process id.
func (p *Process) ID() int { return p.id }

// VCPU reports the process's current VCPU.
func (p *Process) VCPU() *VCPU { return p.vcpu }

// Socket reports the socket the process currently runs on.
func (p *Process) Socket() int { return p.vcpu.Socket }

// Compute runs d of CPU work on the process's VCPU.
func (p *Process) Compute(d sim.Duration, done func()) { p.vcpu.Run(d, done) }

// MoveTo migrates the process to another VCPU (the in-guest NUMA-aware
// placement IOrchestra's co-scheduling callback performs).
func (p *Process) MoveTo(vcpuIdx int) {
	if vcpuIdx < 0 || vcpuIdx >= len(p.g.vcpus) {
		panic(fmt.Sprintf("guest: MoveTo(%d) out of range", vcpuIdx))
	}
	p.vcpu = p.g.vcpus[vcpuIdx]
}

// Sockets reports the distinct sockets this guest's VCPUs span, ascending.
func (g *Guest) Sockets() []int {
	seen := map[int]bool{}
	for _, v := range g.vcpus {
		seen[v.Socket] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// ProcessWeightBySocket sums process I/O weights per socket — the
// W_SKT(VCPU_k) aggregation from Sec. 3.3.
func (g *Guest) ProcessWeightBySocket() map[int]float64 {
	out := map[int]float64{}
	for _, p := range g.procs {
		out[p.Socket()] += p.IOWeight
	}
	return out
}

// TotalProcessWeight sums all process I/O weights (the Σ P_l denominator).
func (g *Guest) TotalProcessWeight() float64 {
	var sum float64
	for _, p := range g.procs {
		sum += p.IOWeight
	}
	return sum
}

// VCPUsOnSocket returns indices of VCPUs on the given socket.
func (g *Guest) VCPUsOnSocket(socket int) []int {
	var out []int
	for _, v := range g.vcpus {
		if v.Socket == socket {
			out = append(out, v.idx)
		}
	}
	return out
}

// MeanVCPUUtil reports the average VCPU busy fraction.
func (g *Guest) MeanVCPUUtil(now sim.Time) float64 {
	var sum float64
	for _, v := range g.vcpus {
		sum += v.UtilFraction(now)
	}
	return sum / float64(len(g.vcpus))
}
