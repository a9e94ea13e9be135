package core

import (
	"strconv"
	"strings"

	"iorchestra/internal/fault"
	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Manager is the hypervisor side of IOrchestra: the paper's management
// module (Fig. 3) as an orchestrator over pluggable policy controllers.
// It owns the privileged store watch and fans parsed events out to the
// controllers' declared routes, hosts the shared liveness middleware,
// and runs the per-guest lifecycle (driver installation, teardown). The
// policies themselves live in flush.go, congestion.go and cosched.go;
// the Manager holds no policy state of its own.
//
// Manager is itself a Controller, so platforms install it through the
// same registry as the baseline systems.
type Manager struct {
	h   *hypervisor.Host
	k   *sim.Kernel
	st  *store.Store
	rng *stats.Stream
	pol Policies
	cfg ManagerConfig
	// rec is the decision ledger: the host's trace recorder when tracing
	// is on, a count-only one otherwise. Every decision is one
	// rec.Record; Counters reads the per-kind counts back.
	rec *trace.Recorder

	drivers map[store.DomID]*Driver
	live    *liveness
	faults  *fault.Injector // optional; see SetFaults

	// subs are the policy controllers in registration order; flush,
	// congest and cosched alias the entries for counter snapshots and
	// targeted delegation (each may be nil under a partial Policies).
	subs    []Controller
	flush   *flushController
	congest *congestController
	cosched *coschedController
	gstate  *gstateController

	// Store-event routing tables, built from each handler's Routes().
	diskRoutes   map[string][]StoreHandler
	domainRoutes map[string][]StoreHandler
	prefixRoutes []prefixRoute
}

type prefixRoute struct {
	prefix  string
	handler StoreHandler
}

// NewManager attaches IOrchestra's hypervisor modules to h with the given
// policies. Guests must be enabled individually with EnableGuest (or
// Attach) after their disks are attached.
func NewManager(h *hypervisor.Host, pol Policies, cfg ManagerConfig, rng *stats.Stream) *Manager {
	cfg.fillDefaults()
	m := &Manager{
		h:            h,
		k:            h.Kernel(),
		st:           h.Store(),
		rng:          rng,
		pol:          pol,
		cfg:          cfg,
		rec:          trace.OrCountOnly(h.Recorder()),
		drivers:      map[store.DomID]*Driver{},
		diskRoutes:   map[string][]StoreHandler{},
		domainRoutes: map[string][]StoreHandler{},
	}
	m.live = newLiveness(m.k, m.st, m.rec, &m.cfg,
		func(dom store.DomID) bool { _, ok := m.drivers[dom]; return ok })
	m.addRoutes(m.live)
	if pol.Flush {
		m.flush = newFlushController(m)
		m.register(m.flush)
	}
	if pol.Congestion {
		m.congest = newCongestController(m)
		m.register(m.congest)
	}
	if pol.Cosched {
		m.cosched = newCoschedController(m)
		m.register(m.cosched)
	}
	if pol.GState {
		m.gstate = newGStateController(m)
		m.register(m.gstate)
	}
	// The management module is called when there is a change on watched
	// items (Fig. 3): one privileged watch over all domains, fanned out
	// to the registered routes.
	m.st.Watch(store.Dom0, store.Root, m.onStoreEvent)
	return m
}

// register wires a policy controller into the manager's framework:
// lifecycle dispatch, store-event routing, and liveness callbacks.
func (m *Manager) register(c Controller) {
	m.subs = append(m.subs, c)
	if sh, ok := c.(StoreHandler); ok {
		m.addRoutes(sh)
	}
	if fh, ok := c.(FallbackHook); ok {
		m.live.hooks = append(m.live.hooks, fh)
	}
}

func (m *Manager) addRoutes(sh StoreHandler) {
	r := sh.Routes()
	for _, k := range r.DiskKeys {
		m.diskRoutes[k] = append(m.diskRoutes[k], sh)
	}
	for _, k := range r.DomainKeys {
		m.domainRoutes[k] = append(m.domainRoutes[k], sh)
	}
	for _, p := range r.DomainPrefixes {
		m.prefixRoutes = append(m.prefixRoutes, prefixRoute{prefix: p, handler: sh})
	}
}

// SetFaults installs the platform's fault injector: Attach consults it
// to decide whether a guest's driver registers at all (an uncooperative
// legacy image) and to arm per-driver crash/sync faults.
func (m *Manager) SetFaults(inj *fault.Injector) { m.faults = inj }

// Name identifies the manager in the platform's controller registry.
func (m *Manager) Name() string { return "iorchestra" }

// Attach is the Controller lifecycle entry: it enables the guest unless
// the fault layer marks it uncooperative — such a guest never registers
// a driver, the exact shape a legacy image presents; its I/O still flows
// through the shared backend.
func (m *Manager) Attach(rt *hypervisor.GuestRuntime) {
	if m.faults != nil && m.faults.Uncooperative(rt.G.ID()) {
		return
	}
	drv := m.EnableGuest(rt)
	if m.faults != nil {
		drv.SetSyncFault(m.faults.SyncFault(rt.G.ID()))
		m.faults.ScheduleCrash(rt.G.ID(), drv)
	}
}

// Detach is the Controller lifecycle exit (see DisableGuest).
func (m *Manager) Detach(dom store.DomID) { m.DisableGuest(dom) }

// EnableGuest installs the guest driver for rt and registers it with the
// manager. Returns the driver for inspection.
func (m *Manager) EnableGuest(rt *hypervisor.GuestRuntime) *Driver {
	drv := NewDriver(m.h, rt, m.rng.Fork("drv"+strconv.Itoa(int(rt.G.ID()))))
	m.drivers[rt.G.ID()] = drv
	// Registration counts as the first heartbeat: the real one arrives
	// through the store a notification latency later.
	m.live.noteAttached(rt.G.ID())
	for _, c := range m.subs {
		c.Attach(rt)
	}
	return drv
}

// DisableGuest closes a guest's driver and lets every controller forget
// its policy state — the teardown path for guest removal (the arrival
// experiments call it through Platform.Disable). Safe to call for guests
// that were never enabled.
func (m *Manager) DisableGuest(dom store.DomID) {
	drv := m.drivers[dom]
	if drv == nil {
		return
	}
	drv.Close()
	delete(m.drivers, dom)
	for _, c := range m.subs {
		c.Detach(dom)
	}
	m.live.forget(dom)
}

// GStateMeter exposes the G-state controller's SLA-violation meter for
// the tiered experiments' per-tier reporting — nil when the gstate
// policy is off.
func (m *Manager) GStateMeter() *gstate.Meter {
	if m.gstate == nil {
		return nil
	}
	return m.gstate.Meter()
}

// DisableCosched excludes one guest from co-scheduling decisions (weight
// targets and quanta); ablation experiments use it to hold a guest's
// process placement static on an otherwise identical platform. A no-op
// when the manager runs without the co-scheduling policy.
func (m *Manager) DisableCosched(dom store.DomID) {
	if m.cosched != nil {
		m.cosched.disable(dom)
	}
}

// crossSocketGuestExists reports whether any enabled guest spans sockets
// (the population co-scheduling can act on).
func (m *Manager) crossSocketGuestExists() bool {
	for _, drv := range m.drivers {
		if len(drv.g.Sockets()) > 1 {
			return true
		}
	}
	return false
}

// onStoreEvent parses /local/domain/<id>/<rel> and routes to the
// controllers whose declared keys match.
func (m *Manager) onStoreEvent(path, value string) {
	const prefix = store.Root + "/"
	if !strings.HasPrefix(path, prefix) {
		return
	}
	rest := path[len(prefix):]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return
	}
	id, err := strconv.Atoi(rest[:i])
	if err != nil {
		return
	}
	dom := store.DomID(id)
	rel := rest[i+1:]
	if strings.HasPrefix(rel, "virt-dev/") {
		dr := rel[len("virt-dev/"):]
		j := strings.IndexByte(dr, '/')
		if j < 0 {
			return
		}
		disk, key := dr[:j], dr[j+1:]
		for _, h := range m.diskRoutes[key] {
			h.OnStoreEvent(StoreEvent{Dom: dom, Disk: disk, Key: key, Value: value})
		}
		return
	}
	if hs := m.domainRoutes[rel]; hs != nil {
		for _, h := range hs {
			h.OnStoreEvent(StoreEvent{Dom: dom, Key: rel, Value: value})
		}
		return
	}
	for _, pr := range m.prefixRoutes {
		if strings.HasPrefix(rel, pr.prefix) {
			pr.handler.OnStoreEvent(StoreEvent{Dom: dom, Key: rel, Value: value})
		}
	}
}
