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
// module (Fig. 3), "called when there is a change on watched items". It
// owns the privileged store watch and hands each parsed key to the
// policy that owns it, hosts the shared liveness middleware, and runs
// the per-guest lifecycle (driver installation, teardown). The policies
// themselves live in flush.go, congestion.go, cosched.go and gstate.go;
// the Manager holds no policy state of its own.
//
// Manager is a Controller, the lifecycle a platform drives, as the
// baseline systems are.
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

	// drivers holds each enabled guest's driver, and with it the key
	// table every policy writes and reads the guest's keys through (as
	// Dom0). Each such site runs only for a dom in this map: it checks
	// live.cooperative, which requires the driver, or a m.drivers entry
	// directly, or it acts on state DisableGuest clears with the entry —
	// flush's outstanding order, congestion's held and pending releases,
	// liveness's fallbacks, cosched's walk over this map and gstate's
	// machine. The one lookup that can miss is a disk the driver does not
	// drive (Manager.diskKey).
	drivers map[store.DomID]*Driver
	live    *liveness
	faults  *fault.Injector // optional; see SetFaults

	// The policies, each nil when Policies leaves it off. Every lifecycle
	// step calls them in this order: flush, congestion, cosched, gstate.
	flush   *flushController
	congest *congestController
	cosched *coschedController
	gstate  *gstateController
}

// NewManager attaches IOrchestra's hypervisor modules to h with the given
// policies. Guests must be enabled individually with EnableGuest (or
// Attach) after their disks are attached.
func NewManager(h *hypervisor.Host, pol Policies, cfg ManagerConfig, rng *stats.Stream) *Manager {
	cfg.fillDefaults()
	m := &Manager{
		h:       h,
		k:       h.Kernel(),
		st:      h.Store(),
		rng:     rng,
		pol:     pol,
		cfg:     cfg,
		rec:     trace.OrCountOnly(h.Recorder()),
		drivers: map[store.DomID]*Driver{},
	}
	m.live = newLiveness(m)
	if pol.Flush {
		m.flush = newFlushController(m)
	}
	if pol.Congestion {
		m.congest = newCongestController(m)
	}
	if pol.Cosched {
		m.cosched = newCoschedController(m)
	}
	if pol.GState {
		m.gstate = newGStateController(m)
	}
	// One privileged watch over all domains; onStoreEvent hands each
	// change to the policy that owns the key.
	m.st.Watch(store.Dom0, store.Root, m.onStoreEvent)
	return m
}

// SetFaults installs the platform's fault injector: Attach consults it
// to decide whether a guest's driver registers at all (an uncooperative
// legacy image) and to arm per-driver crash/sync faults.
func (m *Manager) SetFaults(inj *fault.Injector) { m.faults = inj }

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
	drv := NewDriver(m.h, rt)
	m.drivers[rt.G.ID()] = drv
	// Registration counts as the first heartbeat: the real one arrives
	// through the store a notification latency later.
	m.live.noteAttached(rt.G.ID())
	if m.cosched != nil {
		// A new guest may shift the per-core latency distribution at once.
		m.cosched.sample.arm()
	}
	if m.gstate != nil {
		m.gstate.attach(rt.G.ID())
	}
	return drv
}

// DisableGuest closes a guest's driver and lets every policy forget its
// state about the guest — the teardown path for guest removal (the arrival
// experiments call it through Platform.Disable). Safe to call for guests
// that were never enabled.
func (m *Manager) DisableGuest(dom store.DomID) {
	drv := m.drivers[dom]
	if drv == nil {
		return
	}
	drv.Close()
	delete(m.drivers, dom)
	if m.flush != nil {
		m.flush.detach(dom)
	}
	if m.congest != nil {
		m.congest.detach(dom)
	}
	if m.cosched != nil {
		delete(m.cosched.off, dom)
	}
	if m.gstate != nil {
		m.gstate.detach(dom)
	}
	m.live.forget(dom)
}

// fellBack lets each policy unstick anything it was holding or expecting
// from a guest liveness has just demoted to Baseline behavior
// (docs/FAULTS.md). Co-scheduling has nothing to unstick: its tick skips
// fallen-back guests, leaving their last-applied static weights in place
// (Algorithm 3 degradation).
func (m *Manager) fellBack(dom store.DomID) {
	if m.flush != nil {
		m.flush.fellBack(dom)
	}
	if m.congest != nil {
		m.congest.fellBack(dom)
	}
}

// restored runs when liveness lets a guest back into collaborative mode.
func (m *Manager) restored(dom store.DomID) {
	if m.flush != nil {
		m.flush.restored(dom)
	}
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
		m.cosched.off[dom] = true
	}
}

// diskKey returns the cursor of one of dom's per-disk keys, a
// diskDriver.keys index: the one its driver registered, or a fresh cursor
// on the absolute path for a disk the driver does not drive. The Monitor
// learns a dom's disks from its has_dirty_pages writes, and can hold one
// written under an earlier driver of the same dom id, delivered after
// DisableGuest forgot it. dom has a driver (see drivers).
func (m *Manager) diskKey(dom store.DomID, disk string, key int) *store.Cursor {
	if dd := m.drivers[dom].disk(disk); dd != nil {
		return &dd.keys[key]
	}
	return m.st.CursorFor(store.DiskPath(dom, disk, diskKeyNames[key]))
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

// onStoreEvent parses /local/domain/<id>/<rel> and hands the key to the
// policy that owns it (docs/STORE_KEYS.md, "Controller routing"). The
// keys of a policy Policies leaves off are dropped.
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
		switch {
		case key == keyHasDirty && m.flush != nil:
			m.flush.noteDirty(dom, disk, value == "1")
		case key == keyNrDirty && m.flush != nil:
			if nr, err := strconv.ParseInt(value, 10, 64); err == nil {
				m.flush.mon.ObserveNrDirty(dom, disk, nr)
			}
		case key == keyFlushNow && value == "0" && m.flush != nil:
			// The guest's reset of our order is the completion ack.
			m.flush.noteFlushAck(dom, disk)
		case key == keyCongestQuery && value == "1" && m.congest != nil:
			m.congest.handleCongestQuery(dom, disk)
		}
		return
	}
	switch {
	case rel == keyReleaseRequest && value == "0" && m.congest != nil:
		// The manager writes "1"; the guest's reset to "0" is the ack.
		m.congest.noteReleaseAck(dom)
	case rel == keyHeartbeat:
		m.live.noteHeartbeat(dom)
	case rel == keyDriverPresent && value == "1":
		m.live.noteDriverRegistered(dom)
	case (rel == keyTotalWeight || strings.HasPrefix(rel, keyWeightPrefix+"/")) && m.cosched != nil:
		// Guest-published weights: any change re-arms sampling.
		m.cosched.sample.arm()
	}
}
