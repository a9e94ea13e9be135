package hypervisor

import (
	"fmt"

	"iorchestra/internal/blkio"
	"iorchestra/internal/bus"
	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// IOMode selects how guest block requests are processed on the host.
type IOMode int

const (
	// ModeBackend is the classic paravirtual path: a driver-domain
	// backend processes requests (per-request CPU cost, interrupts), no
	// core is reserved. This is the paper's Baseline and DIF platform.
	ModeBackend IOMode = iota
	// ModeDedicated reserves one polling I/O core per socket (SDC and
	// IOrchestra platforms).
	ModeDedicated
)

// Config parameterizes a host.
type Config struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	// Device is the shared physical volume (the 8×SSD RAID0 by default).
	Device device.BlockDevice
	// Mode selects the I/O processing path.
	Mode IOMode
	// RouteBySocket routes requests to the I/O core of the submitting
	// process's socket (IOrchestra, Sec. 3.3). When false, every request
	// of a VM goes to its home socket's core — SDC's same-socket
	// assumption.
	RouteBySocket bool
	// BackendCostPerReq is dom0 CPU time per request in ModeBackend
	// (VM exits, interrupt handling, grant mapping).
	BackendCostPerReq sim.Duration
	// IOCoreCostPerReq and IOCoreBps parameterize polling cores.
	IOCoreCostPerReq sim.Duration
	IOCoreBps        float64
	// StoreLatency is the system-store watch-notification latency.
	StoreLatency sim.Duration
	// MaxDeviceInFlight caps host dispatch concurrency at the device.
	MaxDeviceInFlight int
	// Trace enables the unified decision-trace recorder: store writes and
	// watch fires, guest congestion engagements, policy decisions and
	// per-request device events all land in one (sim-time, seq)-ordered
	// stream exportable as NDJSON. TraceCapacity bounds the event ring
	// (default trace.DefaultRecorderCapacity).
	Trace         bool
	TraceCapacity int
}

const (
	// ringLatency is the frontend↔backend notification latency each way.
	ringLatency = 25 * sim.Microsecond
	// backendBps is the backend's per-byte processing rate: large
	// requests occupy the backend proportionally, just as they occupy a
	// polling core. Grant mapping is per-page bookkeeping and the data
	// itself moves by DMA, so the effective rate is high.
	backendBps = 25e9
)

func (c *Config) fillDefaults() {
	if c.Name == "" {
		c.Name = "host0"
	}
	if c.Sockets <= 0 {
		c.Sockets = 2 // two six-core E5-2620s in the paper's testbed
	}
	if c.CoresPerSocket <= 0 {
		c.CoresPerSocket = 6
	}
	if c.BackendCostPerReq <= 0 {
		// Each request costs VM exits, interrupt injection and grant
		// bookkeeping in the driver domain; eliminating this per-request
		// tax is why the dedicated polling designs exist.
		c.BackendCostPerReq = 30 * sim.Microsecond
	}
	if c.IOCoreCostPerReq <= 0 {
		c.IOCoreCostPerReq = 3 * sim.Microsecond
	}
	if c.IOCoreBps <= 0 {
		c.IOCoreBps = 25e9
	}
	if c.StoreLatency <= 0 {
		c.StoreLatency = 30 * sim.Microsecond
	}
}

// Host is one physical machine: topology, shared device, guests, and the
// host half of the I/O path.
type Host struct {
	k   *sim.Kernel
	cfg Config
	rng *stats.Stream

	st  *store.Store
	bs  *bus.Bus
	cg  *Cgroup
	dev device.BlockDevice

	iocores []*IOCore // one per socket in ModeDedicated

	backendBusy bool
	backendQ    sim.FIFO[*device.Request]
	backendUtil metrics.Utilization

	guests  map[store.DomID]*GuestRuntime
	nextDom store.DomID
	rec     *trace.Recorder // nil unless Config.Trace

	// coreLoad[socket][core] counts VCPUs pinned to that core.
	coreLoad [][]int
	// pcores[socket][core] are the physical cores VCPUs execute on.
	pcores [][]*PCore

	mon *Monitor // lazily built by Monitor()
}

// GuestRuntime couples a guest with its host-side state.
type GuestRuntime struct {
	G          *guest.Guest
	Dom        *bus.Domain
	HomeSocket int
	vcpuCores  [][2]int // (socket, core) per VCPU
}

// New builds a host on kernel k. If dev is nil in cfg, the paper's RAID0
// array is created.
func New(k *sim.Kernel, cfg Config, rng *stats.Stream) *Host {
	cfg.fillDefaults()
	if cfg.Device == nil {
		cfg.Device = device.PaperArray(k, rng.Fork("array"))
	}
	st := store.New(k, cfg.StoreLatency)
	h := &Host{
		k:       k,
		cfg:     cfg,
		rng:     rng,
		st:      st,
		bs:      bus.New(k, st, ringLatency),
		dev:     cfg.Device,
		guests:  map[store.DomID]*GuestRuntime{},
		nextDom: 1,
	}
	h.cg = NewCgroup(k, cfg.Device, cfg.MaxDeviceInFlight)
	if cfg.Trace {
		h.rec = trace.NewRecorder(k, cfg.TraceCapacity)
		h.cg.rec = h.rec
		st.SetRecorder(h.rec)
		if dr, ok := cfg.Device.(interface{ SetRecorder(*trace.Recorder) }); ok {
			dr.SetRecorder(h.rec)
		}
	}
	h.coreLoad = make([][]int, cfg.Sockets)
	h.pcores = make([][]*PCore, cfg.Sockets)
	for s := range h.coreLoad {
		h.coreLoad[s] = make([]int, cfg.CoresPerSocket)
		h.pcores[s] = make([]*PCore, cfg.CoresPerSocket)
		for c := range h.pcores[s] {
			h.pcores[s][c] = NewPCore(k)
		}
	}
	if cfg.Mode == ModeDedicated {
		for s := 0; s < cfg.Sockets; s++ {
			core := NewIOCore(k, s, h.cg, cfg.IOCoreCostPerReq, cfg.IOCoreBps)
			h.iocores = append(h.iocores, core)
			h.cg.SetWeight(core.ID(), 1)
			// Reserve core 0 of each socket for polling.
			h.coreLoad[s][0] = 1 << 20
		}
	}
	return h
}

// Kernel, Store, Bus and IOCores expose subsystems to the control plane.
// The cgroup (with its blktrace account) and the congestion verdict are
// not exported: policies read measurements through Monitor.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Store exposes the system store.
func (h *Host) Store() *store.Store { return h.st }

// Bus exposes the inter-domain bus.
func (h *Host) Bus() *bus.Bus { return h.bs }

// Device exposes the shared physical volume for end-of-run reporting;
// policies read Monitor.DeviceSnapshot.
func (h *Host) Device() device.BlockDevice { return h.dev }

// Recorder exposes the unified decision-trace recorder (nil unless the
// host was built with Config.Trace).
func (h *Host) Recorder() *trace.Recorder { return h.rec }

// IOCores lists dedicated polling cores (empty in ModeBackend).
func (h *Host) IOCores() []*IOCore { return h.iocores }

// Name reports the host name.
func (h *Host) Name() string { return h.cfg.Name }

// Guest returns one runtime (nil if absent).
func (h *Host) Guest(id store.DomID) *GuestRuntime { return h.guests[id] }

// CreateGuest places a VM on the host, pins its VCPUs (fill-first across
// sockets, skipping reserved I/O cores), registers it with the bus, and
// attaches its disks through paravirtual frontends. A zero cfg.ID is
// auto-assigned.
func (h *Host) CreateGuest(cfg guest.Config, disks ...guest.DiskConfig) *GuestRuntime {
	if cfg.ID == 0 {
		cfg.ID = h.nextDom
	}
	if cfg.ID >= h.nextDom {
		h.nextDom = cfg.ID + 1
	}
	if _, dup := h.guests[cfg.ID]; dup {
		panic(fmt.Sprintf("hypervisor: duplicate domain id %d", cfg.ID))
	}
	g := guest.New(h.k, cfg, h.rng.Fork(fmt.Sprintf("guest%d", cfg.ID)))
	rt := &GuestRuntime{G: g, Dom: h.bs.Register(cfg.ID)}
	h.placeVCPUs(rt)
	if len(disks) == 0 {
		disks = []guest.DiskConfig{{Name: "xvda"}}
	}
	for _, dc := range disks {
		h.attachDisk(rt, dc)
	}
	h.guests[cfg.ID] = rt
	return rt
}

// placeVCPUs pins VCPUs to the least-loaded cores, filling socket by
// socket; large VMs therefore cross sockets exactly as Sec. 3.3 describes.
// Each VCPU executes its bursts on the pinned physical core, so busy
// co-located VCPUs serialize (work-conserving time sharing) while idle
// ones cost nothing.
func (h *Host) placeVCPUs(rt *GuestRuntime) {
	g := rt.G
	for i := 0; i < g.NumVCPUs(); i++ {
		s, c := h.leastLoadedCore()
		h.coreLoad[s][c]++
		rt.vcpuCores = append(rt.vcpuCores, [2]int{s, c})
		g.PlaceVCPU(i, s, h.pcores[s][c].Exec)
		if i == 0 {
			rt.HomeSocket = s
		}
	}
}

func (h *Host) leastLoadedCore() (socket, core int) {
	best := -1
	for s := range h.coreLoad {
		for c := range h.coreLoad[s] {
			if best < 0 || h.coreLoad[s][c] < best {
				best = h.coreLoad[s][c]
				socket, core = s, c
			}
		}
	}
	return socket, core
}

// RemoveGuest releases a VM's cores, closes its caches and forgets it:
// its bus handle and its host-path latency aggregate go too, so a host
// that guests come and go on holds its live population and no more (used
// by the dynamic-arrival experiments). Its round-robin classes need nothing:
// a drained class is already off the ring, and a request still on its
// way is served from its class at the weight it had.
func (h *Host) RemoveGuest(id store.DomID) {
	rt := h.guests[id]
	if rt == nil {
		return
	}
	for _, sc := range rt.vcpuCores {
		h.coreLoad[sc[0]][sc[1]]--
	}
	for _, d := range rt.G.Disks() {
		d.Cache.Close()
	}
	delete(h.guests, id)
	h.bs.Unregister(id)
	delete(h.cg.pathLat, int(id))
}

// attachDisk wires one virtual disk through a frontend into the host path.
func (h *Host) attachDisk(rt *GuestRuntime, dc guest.DiskConfig) {
	front := blkio.LowerFunc(func(r *device.Request) {
		// Frontend→host notification.
		h.k.After(ringLatency, func() {
			// Completion returns through the ring as well.
			done := r.Done
			r.Done = func() { h.k.After(ringLatency, done) }
			h.route(rt, r)
		})
	})
	v := rt.G.AddDisk(dc, front)
	if h.rec != nil {
		v.Queue.SetRecorder(h.rec, int(rt.G.ID()))
	}
}

// route delivers a guest request to the configured host path.
func (h *Host) route(rt *GuestRuntime, r *device.Request) {
	if h.cfg.Mode == ModeDedicated {
		socket := rt.HomeSocket
		if h.cfg.RouteBySocket {
			socket = r.Socket
		}
		if socket < 0 || socket >= len(h.iocores) {
			socket = rt.HomeSocket % len(h.iocores)
		}
		h.iocores[socket].Enqueue(rt.G.ID(), r)
		return
	}
	h.backendSubmit(r)
}

// backendSubmit models the driver-domain backend: per-request CPU cost on
// a shared dom0 core, then weighted dispatch to the device with the VM's
// cgroup class (r.Owner: the guest stamped it, and merges keep it).
func (h *Host) backendSubmit(r *device.Request) {
	h.backendQ.Push(r)
	if !h.backendBusy {
		h.backendPump()
	}
}

func (h *Host) backendPump() {
	r, ok := h.backendQ.Pop()
	if !ok {
		h.backendBusy = false
		h.backendUtil.SetBusy(h.k.Now(), false)
		return
	}
	h.backendBusy = true
	h.backendUtil.SetBusy(h.k.Now(), true)
	cost := h.cfg.BackendCostPerReq +
		sim.Duration(float64(r.Size)/backendBps*float64(sim.Second))
	h.k.After(cost, func() {
		h.cg.Submit(r.Owner, r)
		h.backendPump()
	})
}

// SetClassWeight sets an arbitrary dispatch class's cgroup weight on the
// device — the actuation surface co-scheduling uses for I/O-core classes
// (Sec. 3.3), so policy controllers never reach into the Cgroup itself.
func (h *Host) SetClassWeight(id int, w float64) {
	h.cg.SetWeight(id, w)
}

// TotalCores reports physical cores on the host.
func (h *Host) TotalCores() int { return h.cfg.Sockets * h.cfg.CoresPerSocket }

// CPUUtilization aggregates core usage at time now: physical-core busy
// fractions, spinning I/O cores at 100 %, and the backend's busy fraction
// — the quantity behind Fig. 10(c). End-of-run reporting, like Device;
// policies read Monitor's snapshots.
func (h *Host) CPUUtilization(now sim.Time) float64 {
	var used float64
	for s := range h.pcores {
		for c, pc := range h.pcores[s] {
			if h.cfg.Mode == ModeDedicated && c == 0 {
				continue // counted below as a spinning polling core
			}
			used += pc.UtilFraction(now)
		}
	}
	used += float64(len(h.iocores)) // polling cores always spin
	if h.cfg.Mode == ModeBackend {
		used += h.backendUtil.Fraction(now)
	}
	total := float64(h.TotalCores())
	if used > total {
		used = total
	}
	return used / total
}
