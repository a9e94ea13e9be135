package core

import (
	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// gstateController is the elastic G-state policy (docs/GSTATES.md): a
// tiered-SLA performance-state controller layered on the paper's
// management module. It watches host pressure through the Monitor —
// never the devices directly — and walks guests down the G0..G3 ladder
// under sustained contention (bronze before silver before gold, the
// internal/gstate machine's victim order), actuating each step through
// the host cgroup weight and the guest's published sla/state key (the
// driver scales its congestion thresholds to match). Admission control
// defers new bronze arrivals while gold is in violation; the Meter
// accrues per-tier violation-seconds that the SLA experiments report.
//
// The split with internal/gstate is deliberate: that package is the
// pure model (tiers, machine, meter), this controller owns every
// measurement, hysteresis decision and actuation, exactly as the other
// policies do. G-state weights assume the backend I/O model (class id =
// domain id); combining GState with Cosched — which drives the same
// cgroup weights per I/O core — is unsupported.
type gstateController struct {
	m   *Manager
	mon *hypervisor.Monitor

	machine *gstate.Machine
	meter   *gstate.Meter

	sample cadence

	// Hysteresis: consecutive pressure/relief verdicts. A demotion fires
	// after gstateDemoteAfter pressure ticks, a promotion after
	// gstatePromoteAfter relief ticks; the mid-band resets both so noisy
	// utilization cannot ratchet guests down.
	pressTicks  int
	reliefTicks int

	// pending holds deferred arrivals in FIFO order.
	pending []store.DomID
}

// latWindow is a guest's (count, sum) latency snapshot, kept on its
// Driver; the delta between ticks is the windowed mean the latency
// verdict uses.
type latWindow struct {
	count uint64
	sum   sim.Time
}

func newGStateController(m *Manager) *gstateController {
	gc := &gstateController{
		m:       m,
		mon:     m.h.Monitor(),
		machine: gstate.NewMachine(),
		meter:   gstate.NewMeter(),
	}
	gc.sample = cadence{k: m.k, period: gstateInterval, tick: gc.gstateTick}
	return gc
}

// attach runs admission control for a new guest: read its declared SLA,
// defer a bronze arrival while gold is in violation (parked at the
// bronze floor weight until relief), admit everyone else at G0.
func (gc *gstateController) attach(drv *Driver) {
	dom := drv.id
	tier, sla := gstate.ReadSLA(gc.m.st, dom)
	if tier == gstate.Bronze && gc.meter.AnyViolating(gstate.Gold) {
		gc.m.rec.Record(trace.Record{
			Kind: trace.KindGStateDefer, Dom: int(dom),
			Path: string(tier), Value: "gold-violating",
		})
		// Park the arrival at the bronze floor: it runs, but at the
		// deepest throttle, so it cannot widen the violation it arrived
		// into. admitPending lifts it on relief.
		gc.applyState(drv, gstate.Bronze.Floor())
		gc.pending = append(gc.pending, dom)
		gc.sample.arm()
		return
	}
	gc.admitGuest(drv, tier, sla, "immediate")
	gc.sample.arm()
}

// detach forgets the guest: any open violation episode is closed and
// accrued so a removed guest's half-open violation still lands in the
// books.
func (gc *gstateController) detach(dom store.DomID) {
	gc.machine.Remove(dom)
	gc.meter.Forget(dom, gc.m.k.Now())
	for i, d := range gc.pending {
		if d == dom {
			gc.pending = append(gc.pending[:i], gc.pending[i+1:]...)
			break
		}
	}
}

// Meter exposes the violation accounting for experiments and tests.
func (gc *gstateController) Meter() *gstate.Meter { return gc.meter }

// admitGuest installs a guest in the state machine at G0 and publishes
// the full-speed state.
func (gc *gstateController) admitGuest(drv *Driver, tier gstate.Tier, sla gstate.SLA, how string) {
	gc.machine.Add(drv.id, tier, sla)
	gc.applyState(drv, gstate.G0)
	gc.m.rec.Record(trace.Record{
		Kind: trace.KindGStateAdmit, Dom: int(drv.id),
		Path: string(tier), Value: how,
	})
}

// applyState actuates one guest's G-state: the proportional-share
// weight at the host cgroup (backend mode: class id = domain id) and
// the published sla/state index the guest driver answers by scaling its
// congestion thresholds — the collaborative half of the actuation.
func (gc *gstateController) applyState(drv *Driver, st gstate.State) {
	gc.m.h.SetClassWeight(int(drv.id), st.Weight())
	key := &drv.slaState
	if !gc.m.st.Exists(key.Path()) {
		// The node is Dom0-owned (the manager publishes it), but the
		// guest driver watches it — and the store checks the watcher's
		// read permission at notification time. Create the node and
		// grant the guest read BEFORE the first meaningful write, or
		// every state notification would be silently filtered and the
		// guest would never scale its congestion thresholds.
		gc.m.st.WriteIntCursor(store.Dom0, key, int64(gstate.G0))
		gc.m.st.Grant(store.Dom0, key.Path(), drv.id, store.PermRead)
	}
	gc.m.st.WriteIntCursor(store.Dom0, key, int64(st))
}

// gstateTick is the control loop: classify host pressure, run the
// hysteresis counters, demote or promote one step when a threshold is
// crossed, meter per-guest SLA violations, and admit deferred arrivals
// on relief. It reports whether any guest remains to watch.
func (gc *gstateController) gstateTick() bool {
	now := gc.m.k.Now()
	if gc.machine.Len() == 0 && len(gc.pending) == 0 {
		return false
	}
	ds := gc.mon.DeviceSnapshot(now)
	congested := gc.mon.IOCongested()
	pressure := ds.UtilFraction >= gstateHighUtil || congested
	relief := ds.UtilFraction <= gstateLowUtil && !congested
	switch {
	case pressure:
		gc.pressTicks++
		gc.reliefTicks = 0
	case relief:
		gc.reliefTicks++
		gc.pressTicks = 0
	default:
		gc.pressTicks = 0
		gc.reliefTicks = 0
	}
	if gc.pressTicks >= gstateDemoteAfter {
		gc.pressTicks = 0
		gc.demoteOne()
	}
	if gc.reliefTicks >= gstatePromoteAfter {
		gc.reliefTicks = 0
		gc.promoteOne()
	}
	gc.observeViolations(now)
	gc.admitPending()
	return true
}

// demoteOne applies one demotion step to the machine's chosen victim.
func (gc *gstateController) demoteOne() {
	dom, st, ok := gc.machine.Demote()
	if !ok {
		return // every guest is at its tier floor
	}
	gc.applyState(gc.m.drivers[dom], st)
	gc.m.rec.Record(trace.Record{
		Kind: trace.KindGStateDemote, Dom: int(dom),
		Path: string(gc.machine.Tier(dom)), Value: st.String(), Weight: st.Weight(),
	})
}

// promoteOne applies one promotion step (gold recovers first).
func (gc *gstateController) promoteOne() {
	dom, st, ok := gc.machine.Promote()
	if !ok {
		return // everyone already at G0
	}
	gc.applyState(gc.m.drivers[dom], st)
	gc.m.rec.Record(trace.Record{
		Kind: trace.KindGStatePromote, Dom: int(dom),
		Path: string(gc.machine.Tier(dom)), Value: st.String(), Weight: st.Weight(),
	})
}

// observeViolations renders one verdict per admitted guest and folds it
// into the meter. Bandwidth: the applied weight sits below the declared
// minimum fraction (demotion past the floor the SLA promises).
// Latency: the windowed mean of the guest's host-path completions
// exceeds its budget — a lifetime percentile would stay saturated
// forever and never clear on relief.
func (gc *gstateController) observeViolations(now sim.Time) {
	for _, dom := range gc.machine.Doms() {
		tier := gc.machine.Tier(dom)
		sla := gc.machine.SLA(dom)
		reason := ""
		if gc.machine.State(dom).Weight() < sla.MinBWFrac {
			reason = "bandwidth"
		}
		count, sum := gc.mon.GuestPathStats(dom)
		drv := gc.m.drivers[dom]
		if w := drv.lat; count > w.count && reason == "" {
			mean := sim.Duration(sum-w.sum) / sim.Duration(count-w.count)
			if mean > sla.P99Budget {
				reason = "latency"
			}
		}
		drv.lat = latWindow{count: count, sum: sum}
		if onset := gc.meter.Observe(dom, tier, reason != "", now); onset {
			gc.m.rec.Record(trace.Record{
				Kind: trace.KindGStateViolation, Dom: int(dom),
				Path: string(tier), Value: reason,
			})
		}
	}
}

// admitPending lifts one deferred arrival per tick once gold is clean —
// gradual, so a burst of parked bronze guests cannot re-trigger the
// violation they were deferred for in a single step.
func (gc *gstateController) admitPending() {
	if len(gc.pending) == 0 || gc.meter.AnyViolating(gstate.Gold) {
		return
	}
	dom := gc.pending[0]
	gc.pending = gc.pending[1:]
	tier, sla := gstate.ReadSLA(gc.m.st, dom)
	gc.admitGuest(gc.m.drivers[dom], tier, sla, "deferred")
}
