package cluster

import (
	"iorchestra/internal/apps"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/workload"
)

// AppKind selects the application a dynamically arriving VM runs; the
// paper's mix is {FS, YCSB1, Cloud9} (Sec. 5.3).
type AppKind int

const (
	// AppFS runs the FileBench fileserver until FSBytes are written.
	AppFS AppKind = iota
	// AppYCSB1 runs the update-heavy YCSB mix for YCSBOps operations.
	AppYCSB1
	// AppCloud9 runs CPU bursts until Cloud9Bursts complete.
	AppCloud9
)

// String names the app kind.
func (a AppKind) String() string {
	switch a {
	case AppFS:
		return "FS"
	case AppYCSB1:
		return "YCSB1"
	default:
		return "Cloud9"
	}
}

// ArrivalsConfig parameterizes the dynamic experiment.
type ArrivalsConfig struct {
	// Lambda is the Poisson VM arrival rate per minute (paper: 4..20).
	Lambda float64
	// Duration is the experiment length (paper: one hour per λ).
	Duration sim.Duration
	// Sizes are the candidate VCPU counts (= GB of memory); paper:
	// {2,4,6,8,10}.
	Sizes []int
	// Apps is the candidate application mix.
	Apps []AppKind
	// Problem sizes (paper: 50,000 YCSB operations; 2 GB FS data).
	YCSBOps      uint64
	FSBytes      int64
	Cloud9Bursts int
}

func (c *ArrivalsConfig) fillDefaults() {
	if c.Lambda <= 0 {
		c.Lambda = 4
	}
	if c.Duration <= 0 {
		c.Duration = sim.Hour
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2, 4, 6, 8, 10}
	}
	if len(c.Apps) == 0 {
		c.Apps = []AppKind{AppFS, AppYCSB1, AppCloud9}
	}
	if c.YCSBOps == 0 {
		c.YCSBOps = 50000
	}
	if c.FSBytes == 0 {
		c.FSBytes = 2 << 30
	}
	if c.Cloud9Bursts == 0 {
		c.Cloud9Bursts = 2000
	}
}

// VMHooks lets the experiment wire a system (baseline, SDC, DIF,
// IOrchestra) into each VM's lifecycle.
type VMHooks struct {
	// OnCreate runs after guest creation, before its app starts —
	// install drivers here.
	OnCreate func(rt *hypervisor.GuestRuntime)
	// OnRemove runs just before guest removal.
	OnRemove func(rt *hypervisor.GuestRuntime)
}

// units is app's problem size in its own progress units (bytes for FS,
// ops for YCSB, bursts for Cloud9).
func (c *ArrivalsConfig) units(app AppKind) float64 {
	switch app {
	case AppFS:
		return float64(c.FSBytes)
	case AppYCSB1:
		return float64(c.YCSBOps)
	default:
		return float64(c.Cloud9Bursts)
	}
}

// launched is one running application: how to stop it, and how far it
// has come in write bytes and total I/O bytes.
type launched struct {
	stop    func()
	written func() float64
	io      func() float64
}

func zero() float64 { return 0 }

// pollInterval paces the completion checks of apps with no natural end.
const pollInterval = 250 * sim.Millisecond

// launchApp starts app on g for units of its problem size and calls
// done once when that much is complete. live gates every completion
// check: once the VM has finished it reports false and the check dies
// silently. The app keeps running past done until stop.
func launchApp(k *sim.Kernel, g *guest.Guest, app AppKind, vcpus int, units float64,
	rng *stats.Stream, live func() bool, done func()) launched {
	poll := func(complete func() bool) {
		var check func()
		check = func() {
			if !live() {
				return
			}
			if complete() {
				done()
				return
			}
			k.After(pollInterval, check)
		}
		k.After(pollInterval, check)
	}
	d := g.Disks()[0]
	switch app {
	case AppFS:
		fs := workload.NewFS(k, g, d, workload.FlushProneFS(vcpus), rng)
		fs.Start()
		// FS has no natural end: poll for the data-transmission quota.
		poll(func() bool { return fs.WrittenBytes() >= units })
		return launched{stop: fs.Stop, written: fs.WrittenBytes, io: fs.WrittenBytes}
	case AppYCSB1:
		node := apps.NewCassandraNode(g, d, apps.CassandraConfig{}, rng.Fork("node"))
		cl := apps.NewCassandraCluster(k, []*apps.CassandraNode{node}, rng.Fork("cl"))
		// Closed-loop with one client per VCPU ("the number of
		// application threads is the same as its VCPUs").
		op := workload.YCSBOp(workload.YCSB1(), cl, rng.Fork("op"))
		gen := workload.NewClosedLoop(k, vcpus, 0, op, rng.Fork("gen"))
		gen.Start()
		ops := func() float64 { return float64(gen.Recorder().Completed()) }
		poll(func() bool { return ops() >= units })
		return launched{
			stop: gen.Stop,
			// Half the ops are 4 KiB commitlog updates (Table 2 accounting).
			written: func() float64 { return ops() / 2 * 4096 },
			io:      func() float64 { return ops() * 4096 },
		}
	default: // AppCloud9
		cb := workload.NewCPUBound(k, g, rng)
		cb.TotalBursts = int(units)
		cb.OnDone = func() {
			if live() {
				done()
			}
		}
		cb.Start()
		return launched{stop: cb.Stop, written: zero, io: zero}
	}
}

type pendingVM struct {
	vcpus int
	app   AppKind
}

type runningVM struct {
	rt    *hypervisor.GuestRuntime
	vcpus int
	launched
}

// Arrivals drives the dynamic VM experiment on one host: Poisson
// arrivals at Lambda per minute until Duration, each drawing a size and
// an app, queue FIFO for the host's VCPU budget. Its rng drives the
// arrival process only; VM workloads get independent per-placement
// streams derived from appSeed, so arrival sequences stay identical
// across compared systems no matter when each system finishes its VMs.
type Arrivals struct {
	k       *sim.Kernel
	cfg     ArrivalsConfig
	rng     *stats.Stream
	appSeed uint64
	h       *hypervisor.Host
	hooks   VMHooks

	queue       []pendingVM
	running     map[store.DomID]*runningVM
	activeVCPUs int
	// budget is the admission limit. It counts total cores on every
	// platform: VCPUs may share cores (work-conserving), so reserving
	// polling cores does not shrink the admission budget, only the
	// compute capacity.
	budget int

	arrived      int
	placed       int
	completed    int
	writtenBytes float64
	ioBytes      float64
}

// NewArrivals builds the engine on host h.
func NewArrivals(k *sim.Kernel, h *hypervisor.Host, cfg ArrivalsConfig, hooks VMHooks, rng *stats.Stream) *Arrivals {
	cfg.fillDefaults()
	return &Arrivals{
		k: k, cfg: cfg, rng: rng, appSeed: rng.Uint64(),
		h: h, hooks: hooks,
		running: map[store.DomID]*runningVM{}, budget: h.TotalCores(),
	}
}

// Start begins Poisson arrivals and runs until the configured duration;
// VMs still running at the end are left to finish or be abandoned by the
// caller's RunUntil horizon.
func (a *Arrivals) Start() { a.scheduleNext() }

func (a *Arrivals) scheduleNext() {
	ratePerSec := a.cfg.Lambda / 60.0
	gap := sim.DurationOf(a.rng.Exponential(ratePerSec))
	a.k.After(gap, func() {
		if a.k.Now() >= a.cfg.Duration {
			return
		}
		a.arrived++
		vcpus := stats.Pick(a.rng, a.cfg.Sizes)
		app := stats.Pick(a.rng, a.cfg.Apps)
		a.queue = append(a.queue, pendingVM{vcpus: vcpus, app: app})
		a.tryPlace()
		a.scheduleNext()
	})
}

// Completed reports VMs that finished their problem size (Fig. 10b).
func (a *Arrivals) Completed() int { return a.completed }

// WrittenBytes reports aggregate application write bytes (Table 2),
// including VMs still running.
func (a *Arrivals) WrittenBytes() float64 {
	total := a.writtenBytes
	for _, run := range a.running {
		total += run.written()
	}
	return total
}

// IOBytes reports aggregate application I/O bytes, read and write
// (Fig. 11's I/O throughput numerator), including VMs still running.
func (a *Arrivals) IOBytes() float64 {
	total := a.ioBytes
	for _, run := range a.running {
		total += run.io()
	}
	return total
}

// tryPlace admits queued VMs FIFO while capacity remains.
func (a *Arrivals) tryPlace() {
	for len(a.queue) > 0 {
		vm := a.queue[0]
		if a.activeVCPUs+vm.vcpus > a.budget {
			return
		}
		a.queue = a.queue[1:]
		a.place(vm)
	}
}

// place creates the VM, runs the OnCreate hook and launches its
// application with the full problem size.
func (a *Arrivals) place(vm pendingVM) {
	a.placed++
	a.activeVCPUs += vm.vcpus
	rt := a.h.CreateGuest(guest.Config{
		VCPUs:    vm.vcpus,
		MemBytes: int64(vm.vcpus) << 30,
	}, workload.FlushProneDisk(0.2))
	if a.hooks.OnCreate != nil {
		a.hooks.OnCreate(rt)
	}
	run := &runningVM{rt: rt, vcpus: vm.vcpus}
	dom := run.rt.G.ID()
	a.running[dom] = run
	rng := stats.NewStream(a.appSeed+uint64(a.placed), "app")
	live := func() bool { return a.running[dom] == run }
	run.launched = launchApp(a.k, run.rt.G, vm.app, vm.vcpus, a.cfg.units(vm.app), rng, live, func() {
		run.stop()
		written, io := run.written(), run.io()
		if vm.app == AppYCSB1 {
			// Credit the problem size, not the last poll's overshoot.
			written = float64(a.cfg.YCSBOps) / 2 * 4096
			io = written * 2
		}
		a.finish(run, written, io)
	})
}

func (a *Arrivals) finish(run *runningVM, written, io float64) {
	dom := run.rt.G.ID()
	delete(a.running, dom)
	a.completed++
	a.writtenBytes += written
	a.ioBytes += io
	a.activeVCPUs -= run.vcpus
	if a.hooks.OnRemove != nil {
		a.hooks.OnRemove(run.rt)
	}
	a.h.RemoveGuest(dom)
	a.tryPlace()
}
