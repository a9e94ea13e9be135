// Package iorchestra is a library-scale reproduction of "IOrchestra:
// Supporting High-Performance Data-Intensive Applications in the Cloud via
// Collaborative Virtualization" (SC '15): a collaborative-virtualization
// framework that bridges the semantic gap between guest VMs and the
// hypervisor for block I/O.
//
// The real prototype modifies Linux and Xen; this reproduction runs the
// identical control plane (a XenStore-equivalent system store with
// watches, an event-channel bus, the monitoring and management modules,
// and the paper's three policies) over a deterministic discrete-event
// model of the data plane (guest I/O stacks, paravirtual rings, NUMA
// hosts with dedicated polling I/O cores, and an SSD RAID0 array).
//
// The top-level entry point is Platform: pick a System (Baseline, SDC,
// DIF or IOrchestra), create VMs, attach workloads from the workload and
// apps packages, and run the simulation kernel.
//
//	p := iorchestra.NewPlatform(iorchestra.SystemIOrchestra, 42)
//	vm := p.NewVM(2, 4) // 2 VCPUs, 4 GB
//	... drive vm.G's disks, then p.Kernel.RunUntil(...)
package iorchestra

import (
	"fmt"

	"iorchestra/internal/baselines"
	"iorchestra/internal/core"
	"iorchestra/internal/device"
	"iorchestra/internal/fault"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/trace"
)

// Re-exported core types, so downstream users work through one import.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// HostConfig parameterizes a host.
	HostConfig = hypervisor.Config
	// VM couples a guest with its host-side runtime.
	VM = hypervisor.GuestRuntime
	// Policies selects IOrchestra's collaborative functions.
	Policies = core.Policies
	// FaultSpec configures the deterministic fault-injection layer.
	FaultSpec = fault.Spec
)

// ParseFaultSpec parses the -faults command-line grammar (see
// docs/FAULTS.md) into a FaultSpec.
func ParseFaultSpec(raw string) (fault.Spec, error) { return fault.ParseSpec(raw) }

// Re-exported duration constants.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// System identifies one of the four platforms the paper evaluates.
type System int

const (
	// SystemBaseline is stock Linux 3.5 + Xen 4.0 semantics.
	SystemBaseline System = iota
	// SystemSDC adds static dedicated I/O cores (Har'El et al., SplitX).
	SystemSDC
	// SystemDIF adds disk-idleness-based flushing (Elango et al.).
	SystemDIF
	// SystemIOrchestra is the paper's full framework.
	SystemIOrchestra
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case SystemBaseline:
		return "Baseline"
	case SystemSDC:
		return "SDC"
	case SystemDIF:
		return "DIF"
	case SystemIOrchestra:
		return "IOrchestra"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Systems lists all four, in the paper's presentation order.
func Systems() []System {
	return []System{SystemBaseline, SystemSDC, SystemDIF, SystemIOrchestra}
}

// Option customizes a Platform.
type Option func(*options)

type options struct {
	hostCfg    hypervisor.Config
	haveCfg    bool
	policies   core.Policies
	havePol    bool
	managerCfg core.ManagerConfig
	deviceFn   func(k *sim.Kernel, rng *stats.Stream) device.BlockDevice
	trace      bool
	traceCap   int
	faults     fault.Spec
	haveFaults bool
}

// WithHostConfig overrides the host configuration (sockets, cores,
// device, latencies). Mode and RouteBySocket are still forced by the
// chosen System.
func WithHostConfig(cfg hypervisor.Config) Option {
	return func(o *options) { o.hostCfg = cfg; o.haveCfg = true }
}

// WithPolicies restricts IOrchestra to a subset of its policies, as the
// paper's single-function experiments do (e.g. flush control only in
// Sec. 5.3). Ignored for other systems.
func WithPolicies(p core.Policies) Option {
	return func(o *options) { o.policies = p; o.havePol = true }
}

// WithManagerConfig tunes the management module's thresholds and cadences.
func WithManagerConfig(cfg core.ManagerConfig) Option {
	return func(o *options) { o.managerCfg = cfg }
}

// WithDevice supplies a custom storage device built on the platform's
// kernel (e.g. a raw spec-rate array instead of the default effective-rate
// file-backed one).
func WithDevice(fn func(k *sim.Kernel, rng *stats.Stream) device.BlockDevice) Option {
	return func(o *options) { o.deviceFn = fn }
}

// WithFaults installs the deterministic fault-injection layer described
// by spec (see fault.ParseSpec for the textual grammar). Faults are drawn
// from the platform seed's "faults" stream fork, so a given (seed, spec)
// pair reproduces the exact same failure schedule on every run — and the
// workload/device streams are untouched, keeping faulted and clean runs
// paired. An empty spec is a no-op.
func WithFaults(spec fault.Spec) Option {
	return func(o *options) { o.faults = spec; o.haveFaults = true }
}

// WithTracing enables the unified decision-trace recorder: system-store
// writes and watch fires, flush-control orders, congestion verdicts and
// releases, co-scheduling updates and moves, and per-request device
// events all land in one (sim-time, seq)-ordered stream on
// Platform.Trace, exportable as NDJSON for cmd/iorchestra-trace.
// capacity bounds the retained event ring (<= 0 selects the default);
// per-kind counts and the host-path latency histogram are lifetime
// exact regardless of ring eviction.
func WithTracing(capacity int) Option {
	return func(o *options) { o.trace = true; o.traceCap = capacity }
}

// Platform is an assembled system under test: one host (use
// cluster.Testbed for multi-host setups) with the chosen system's
// components installed.
type Platform struct {
	Kernel *sim.Kernel
	Host   *hypervisor.Host
	Sys    System
	Rng    *stats.Stream

	// Manager is non-nil for SystemIOrchestra.
	Manager *core.Manager
	// DIF is non-nil for SystemDIF.
	DIF *baselines.DIF
	// SDC is non-nil for SystemSDC.
	SDC *baselines.SDC
	// Trace is the unified decision-trace recorder (nil unless the
	// platform was built WithTracing).
	Trace *trace.Recorder
	// Faults is the fault-injection engine (nil unless the platform was
	// built WithFaults and the spec is non-empty).
	Faults *fault.Injector

	// ctl is the system's controller — the Manager, DIF or SDC, nil on
	// Baseline; Enable and Disable drive the guest lifecycle through it.
	ctl core.Controller
}

// NewPlatform builds a fresh kernel and host configured for the system.
// The seed fully determines every stochastic component.
func NewPlatform(sys System, seed uint64, opts ...Option) *Platform {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	k := sim.NewKernel()
	// The stream label deliberately excludes the system name: runs of
	// different systems with the same seed draw identical workload and
	// device randomness, so comparisons are paired.
	rng := stats.NewStream(seed, "platform")
	cfg := o.hostCfg
	pol := core.All()
	if o.havePol {
		pol = o.policies
	}
	switch {
	case sys == SystemSDC:
		cfg.Mode = hypervisor.ModeDedicated
		cfg.RouteBySocket = false
	case sys == SystemIOrchestra && pol.Cosched:
		// Dedicated polling cores belong to the co-scheduling function;
		// single-policy ablations (flush-only, congestion-only) run on the
		// standard paravirtual path so platforms stay comparable.
		cfg.Mode = hypervisor.ModeDedicated
		cfg.RouteBySocket = true
	default:
		cfg.Mode = hypervisor.ModeBackend
	}
	var inj *fault.Injector
	if o.haveFaults && !o.faults.Empty() {
		inj = fault.NewInjector(k, o.faults, rng.Fork("faults"))
	}
	if o.deviceFn != nil {
		cfg.Device = o.deviceFn(k, rng.Fork("device"))
	} else if inj != nil && len(o.faults.SlowMembers) > 0 {
		// Reproduce the hypervisor's default array — same stream labels,
		// so member service randomness matches an unfaulted run — with
		// Degraded throttles in front of the selected members. Member
		// faults only apply to the default array; a custom WithDevice
		// wires its own degradation.
		slow := o.faults.SlowMembers
		cfg.Device = device.PaperArrayWith(k, rng.Fork("host").Fork("array"),
			func(i int, m device.BlockDevice) device.BlockDevice {
				f, ok := slow[i]
				if !ok {
					return m
				}
				inj.Note("member", 0, m.Name())
				return device.NewDegraded(k, m, f)
			})
	}
	if o.trace {
		cfg.Trace = true
		cfg.TraceCapacity = o.traceCap
	}
	h := hypervisor.New(k, cfg, rng.Fork("host"))
	p := &Platform{Kernel: k, Host: h, Sys: sys, Rng: rng, Trace: h.Recorder(), Faults: inj}
	if inj != nil {
		inj.SetRecorder(h.Recorder())
		h.Store().SetFaultHooks(inj.StoreHooks())
	}
	switch sys {
	case SystemSDC:
		p.SDC = baselines.NewSDC(h)
		p.ctl = p.SDC
	case SystemDIF:
		p.DIF = baselines.NewDIF(h)
		p.ctl = p.DIF
	case SystemIOrchestra:
		p.Manager = core.NewManager(h, pol, o.managerCfg, rng.Fork("mgr"))
		p.Manager.SetFaults(inj)
		p.ctl = p.Manager
	}
	return p
}

// NewVM creates a guest with vcpus VCPUs and memGB gigabytes, one default
// disk, and the system's per-VM components installed.
func (p *Platform) NewVM(vcpus, memGB int, disks ...guest.DiskConfig) *hypervisor.GuestRuntime {
	rt := p.Host.CreateGuest(guest.Config{
		VCPUs:    vcpus,
		MemBytes: int64(memGB) << 30,
	}, disks...)
	p.Enable(rt)
	return rt
}

// NewTieredVM is NewVM with an SLA tier declared between guest creation
// and controller attach — the G-state controller's admission decision
// reads the SLA synchronously at attach, so a tier published after
// NewVM returns would be invisible and the guest would admit under the
// bronze default (docs/GSTATES.md). A zero sla takes the tier's
// defaults.
func (p *Platform) NewTieredVM(tier gstate.Tier, sla gstate.SLA, vcpus, memGB int, disks ...guest.DiskConfig) *hypervisor.GuestRuntime {
	rt := p.Host.CreateGuest(guest.Config{
		VCPUs:    vcpus,
		MemBytes: int64(memGB) << 30,
	}, disks...)
	gstate.PublishSLA(p.Host.Store(), rt.G.ID(), tier, sla)
	p.Enable(rt)
	return rt
}

// Enable installs the system's per-VM hooks on an existing runtime (used
// by the arrival experiments, which create guests through the cluster
// engine): the system's controller attaches the guest. Fault gating — an
// uncooperative guest whose driver never registers — lives inside the
// manager's Attach, not here.
func (p *Platform) Enable(rt *hypervisor.GuestRuntime) {
	if p.ctl != nil {
		p.ctl.Attach(rt)
	}
}

// Disable tears down the system's per-VM hooks (used by the arrival
// experiments when the cluster engine removes a guest): the system's
// controller forgets the guest.
func (p *Platform) Disable(rt *hypervisor.GuestRuntime) {
	if p.ctl != nil {
		p.ctl.Detach(rt.G.ID())
	}
}

// RunFor advances the simulation by d.
func (p *Platform) RunFor(d sim.Duration) {
	p.Kernel.RunUntil(p.Kernel.Now() + d)
}
