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
// holds a privileged store watch on each guest it drives and hands each
// key to the policy that owns it, hosts the shared liveness middleware,
// and runs the per-guest lifecycle (driver installation, teardown). The
// policies themselves live in flush.go, congestion.go, cosched.go and
// gstate.go, and their state about one guest on its Driver; the Manager
// holds no policy state of its own.
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

	// drivers holds each enabled guest's driver: its key table, through
	// which every policy writes and reads the guest's keys (as Dom0), and
	// every policy's state about the guest and its disks. It is the
	// manager's one per-guest index.
	drivers map[store.DomID]*Driver
	// orphanEvents counts store events dropped at dispatch: they name a
	// disk the guest's driver does not drive.
	orphanEvents uint64

	live   *liveness
	faults *fault.Injector // optional; see SetFaults

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
	drv := newDriver(m.h, rt)
	// Dom0's watch on the guest's subtree, the driver its token. It goes
	// in before the driver writes or watches a key: so it hears every key
	// the driver writes, and, with the lower watch id, hears each before
	// the driver's own watch does.
	home := rt.Dom.Home()
	drv.mgrWatch, _ = m.st.Watch(store.Dom0, home, func(path, value string) {
		if len(path) > len(home) { // the home itself is no key
			m.onStoreEvent(drv, path[len(home)+1:], value)
		}
	})
	drv.start()
	m.drivers[drv.id] = drv
	// Registration counts as the first heartbeat: the real one arrives
	// through the store a notification latency later.
	m.live.noteBeat(drv)
	if m.cosched != nil {
		// A new guest may shift the per-core latency distribution at once.
		m.cosched.sample.arm()
	}
	if m.gstate != nil {
		m.gstate.attach(drv)
	}
	return drv
}

// DisableGuest closes a guest's driver, and with it every policy's state
// about the guest, then unlinks the guest from the orders that span
// guests — the teardown path for guest removal (the arrival experiments
// call it through Platform.Disable). Safe to call for guests that were
// never enabled.
func (m *Manager) DisableGuest(dom store.DomID) {
	drv := m.drivers[dom]
	if drv == nil {
		return
	}
	drv.Close()
	m.st.Unwatch(drv.mgrWatch)
	delete(m.drivers, dom)
	if m.flush != nil {
		m.flush.detach(drv)
	}
	if m.congest != nil {
		m.congest.detach(drv)
	}
	if m.gstate != nil {
		m.gstate.detach(dom)
	}
}

// fellBack lets each policy unstick anything it was holding or expecting
// from a guest liveness has just demoted to Baseline behavior
// (docs/FAULTS.md). Co-scheduling has nothing to unstick: its tick skips
// fallen-back guests, leaving their last-applied static weights in place
// (Algorithm 3 degradation).
func (m *Manager) fellBack(drv *Driver) {
	if m.flush != nil {
		m.flush.fellBack(drv)
	}
	if m.congest != nil {
		m.congest.fellBack(drv)
	}
}

// restored runs when liveness lets a guest back into collaborative mode.
func (m *Manager) restored(drv *Driver) {
	if m.flush != nil {
		m.flush.restored(drv)
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

// DisableCosched excludes one enabled guest from co-scheduling decisions
// (weight targets and quanta); ablation experiments use it to hold a
// guest's process placement static on an otherwise identical platform. A
// no-op when the manager runs without the co-scheduling policy.
func (m *Manager) DisableCosched(dom store.DomID) {
	if drv := m.drivers[dom]; drv != nil {
		drv.coschedOff = true
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

// onStoreEvent hands a key of drv's guest, relative to the guest's home,
// to the policy that owns it (docs/STORE_KEYS.md, "Controller routing").
// A key under a disk the driver does not drive reaches no policy and is
// counted; the keys of a policy Policies leaves off are dropped.
func (m *Manager) onStoreEvent(drv *Driver, rel, value string) {
	if dd, key, ok := drv.virtDev(rel); ok {
		if dd == nil {
			m.orphanEvents++
			return
		}
		switch {
		case key == keyHasDirty && m.flush != nil:
			m.flush.noteDirty(dd, value == "1")
		case key == keyNrDirty && m.flush != nil:
			if nr, err := strconv.ParseInt(value, 10, 64); err == nil {
				m.flush.mon.ObserveNrDirty(&dd.dirty, nr)
			}
		case key == keyFlushNow && value == "0" && m.flush != nil:
			// The guest's reset of our order is the completion ack.
			m.flush.noteFlushAck(dd)
		case key == keyCongestQuery && value == "1" && m.congest != nil:
			m.congest.handleCongestQuery(dd)
		}
		return
	}
	switch {
	case rel == keyReleaseRequest && value == "0" && m.congest != nil:
		// The manager writes "1"; the guest's reset to "0" is the ack.
		m.congest.noteReleaseAck(drv)
	case rel == keyHeartbeat:
		m.live.noteHeartbeat(drv)
	case rel == keyDriverPresent && value == "1":
		m.live.noteDriverRegistered(drv)
	case (rel == keyTotalWeight || strings.HasPrefix(rel, keyWeightPrefix+"/")) && m.cosched != nil:
		// Guest-published weights: any change re-arms sampling.
		m.cosched.sample.arm()
	}
}
