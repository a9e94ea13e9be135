// Package guest models a guest VM's operating system as the paper's
// policies see it: VCPUs executing compute bursts, processes with I/O
// weights, and virtual disks combining a page cache with a block-layer
// queue that dispatches into a paravirtual frontend supplied by the host.
package guest

import (
	"fmt"
	"slices"

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

	vcpus   []*VCPU
	sockets []int // distinct VCPU sockets, ascending; kept by PlaceVCPU
	vdisks  map[string]*VDisk
	names   []string // vdisk names in creation order
	procs   []*Process
	nextPr  int
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
		g.vcpus = append(g.vcpus, &VCPU{g: g, idx: i})
	}
	g.sockets = []int{0} // every VCPU starts on socket 0
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
// host sets Socket and Exec at placement time, with Guest.PlaceVCPU; when
// Exec is installed, burst execution is delegated to the physical core
// (which serializes busy co-located VCPUs), otherwise bursts run locally
// at full-core speed.
type VCPU struct {
	g      *Guest
	idx    int
	Socket int
	// Exec, when non-nil, executes bursts on the pinned physical core.
	Exec ExecFunc

	busy  bool
	queue sim.FIFO[burst]
}

type burst struct {
	d    sim.Duration
	done func()
}

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
		return
	}
	v.busy = true
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
	v.g.k.After(b.d, finish)
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

// PlaceVCPU pins VCPU i to a socket, its bursts executed by exec (nil
// runs them locally): the host's placement, once per VCPU before the
// guest runs. The socket set Sockets reports is kept here, so callers
// that ask for it on every tick do not rebuild it.
func (g *Guest) PlaceVCPU(i, socket int, exec ExecFunc) {
	v := g.vcpus[i]
	v.Socket, v.Exec = socket, exec
	g.sockets = g.sockets[:0]
	for _, v := range g.vcpus {
		if j, found := slices.BinarySearch(g.sockets, v.Socket); !found {
			g.sockets = slices.Insert(g.sockets, j, v.Socket)
		}
	}
}

// Sockets reports the distinct sockets this guest's VCPUs span,
// ascending. The slice is the guest's own; callers must not modify it.
func (g *Guest) Sockets() []int { return g.sockets }

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
