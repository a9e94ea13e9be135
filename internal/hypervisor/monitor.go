package hypervisor

import (
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Monitor is the paper's monitoring module (Sec. 3, Fig. 3) made
// first-class: the single owner of the hypervisor-side measurement state
// that policy controllers act on. Controllers read point-in-time
// snapshots from it — device utilization, per-I/O-core latencies, queue
// backlogs, per-guest dirty-page state — instead of sampling subsystems
// directly, so the read side of every policy is uniform and the write
// side (actuation: flush orders, DRR quanta, cgroup weights) stays on
// Host and the store.
//
// Per-disk dirty state is a DirtyEntry held by whoever mirrors the
// guest's published counters (the manager's per-disk diskDriver), fed
// through the Observe methods and dropped with Forget; the Monitor keeps
// no per-guest map, only a slice of the entries that hold dirty pages.
// Algorithm 1's "argmax nr_i over settled guests" is a scan of that
// slice at decision time: the flush controller asks a few times per
// second at most, while the counts it ranks change on every published
// nr_dirty. Everything else is sampled from the host on demand.
type Monitor struct {
	h *Host

	dirty []*DirtyEntry // entries with HasDirty set, each at its pos

	lat []float64 // CoreSnapshot's Latencies, reused
}

// dirtySettleWindow is Algorithm 1's mid-burst guard, taken literally: a
// disk whose dirty count grew within the last 200 ms is still being
// written — leave it alone.
const dirtySettleWindow = 200 * sim.Millisecond

// DirtyEntry is one (guest, disk) dirty-page mirror plus its slot in
// the Monitor's dirty slice. Its holder owns it (NewDirtyEntry, then by
// value wherever it lives) and must Forget it before dropping it.
type DirtyEntry struct {
	dom  store.DomID
	disk string
	st   DirtyState

	pos      int  // slot in the Monitor's dirty slice; -1 when clean
	observed bool // a presence bit has arrived
}

// NewDirtyEntry returns the unobserved mirror of dom's disk.
func NewDirtyEntry(dom store.DomID, disk string) DirtyEntry {
	return DirtyEntry{dom: dom, disk: disk, pos: -1}
}

// State reports the entry's mirror and whether a presence bit has
// arrived since it was built or last forgotten.
func (e *DirtyEntry) State() (DirtyState, bool) { return e.st, e.observed }

// DirtyState is the monitoring module's view of one (guest, disk)
// dirty-page mirror: the published nr_i count, the presence bit, and
// when the count last grew (a recent grow marks a mid-burst writer that
// Algorithm 1 leaves alone).
type DirtyState struct {
	Nr       int64
	HasDirty bool
	LastGrow sim.Time
}

// DeviceSnapshot is a point-in-time sample of the shared device.
type DeviceSnapshot struct {
	BandwidthBps float64 // current moving-window throughput
	CapacityBps  float64 // spec capacity
	UtilFraction float64 // BandwidthBps over capacity, device-reported
	Pending      int     // requests in flight at the device
}

// CoreSnapshot is a point-in-time sample of the dedicated I/O cores.
type CoreSnapshot struct {
	// Latencies is the mean on-core latency L_i per core, in seconds. It
	// is the Monitor's buffer, overwritten by the next CoreSnapshot: a
	// caller that keeps it copies it.
	Latencies  []float64
	AnyTraffic bool // any core has processed at least one request
}

// Monitor returns the host's monitoring module, creating it on first use.
func (h *Host) Monitor() *Monitor {
	if h.mon == nil {
		h.mon = &Monitor{h: h}
	}
	return h.mon
}

// DeviceSnapshot samples the shared device at now.
func (mo *Monitor) DeviceSnapshot(now sim.Time) DeviceSnapshot {
	dev := mo.h.dev
	return DeviceSnapshot{
		BandwidthBps: dev.BandwidthBps(now),
		CapacityBps:  dev.CapacityBps(),
		UtilFraction: dev.UtilFraction(now),
		Pending:      dev.Pending(),
	}
}

// CoreSnapshot samples per-core latencies at now. Latencies is empty when
// the host runs no dedicated I/O cores (ModeBackend).
func (mo *Monitor) CoreSnapshot(now sim.Time) CoreSnapshot {
	cores := mo.h.iocores
	if len(mo.lat) != len(cores) {
		mo.lat = make([]float64, len(cores))
	}
	cs := CoreSnapshot{Latencies: mo.lat}
	for i, c := range cores {
		cs.Latencies[i] = c.MeanLatency(now)
		if c.Processed() > 0 {
			cs.AnyTraffic = true
		}
	}
	return cs
}

// CapacityBps reports the shared device's spec capacity — the cheap
// subset of DeviceSnapshot for callers that need no bandwidth sampling.
func (mo *Monitor) CapacityBps() float64 { return mo.h.dev.CapacityBps() }

// IOCongested reports the host-side congestion verdict input: the
// dispatch-path backlog or the device's own queue has crossed the
// congestion threshold (Algorithm 2's host check).
func (mo *Monitor) IOCongested() bool { return mo.h.cg.Congested() || mo.h.dev.Congested() }

// QueueBacklog reports requests parked in the host cgroup.
func (mo *Monitor) QueueBacklog() int { return mo.h.cg.Backlog() }

// DevPending reports requests in flight at the device — the cheap subset
// of DeviceSnapshot for callers that need no bandwidth sampling.
func (mo *Monitor) DevPending() int { return mo.h.dev.Pending() }

// HostPathP99 reports the 99th-percentile host-path completion latency
// across every guest, from the decision-trace recorder's host-path
// histogram (0 when tracing is off or nothing has completed). It is the
// one Monitor reading that still depends on tracing (ROADMAP item 5).
func (mo *Monitor) HostPathP99() sim.Time {
	if mo.h.rec == nil {
		return 0
	}
	return mo.h.rec.LatencyPercentile(99)
}

// GuestPathStats reports the completion count and summed host-path
// latency of one guest's I/O, from the cgroup's always-on blktrace account
// (zeros when the guest has no completions) — never from the optional
// decision-trace recorder, so a verdict built on it cannot depend on
// whether anyone is tracing. Two snapshots give a windowed mean — the
// G-state controller's per-guest latency verdict — without the
// saturation a lifetime percentile would suffer under sustained load.
func (mo *Monitor) GuestPathStats(dom store.DomID) (count uint64, sum sim.Time) {
	return mo.h.cg.PathLatency(int(dom))
}

// ObserveDirty records a guest's has_dirty_pages transition on e.
func (mo *Monitor) ObserveDirty(e *DirtyEntry, has bool) {
	e.observed = true
	if !has {
		e.st.Nr = 0
	}
	if has == e.st.HasDirty {
		return
	}
	e.st.HasDirty = has
	if !has {
		mo.drop(e)
		return
	}
	e.pos = len(mo.dirty)
	mo.dirty = append(mo.dirty, e)
}

// ObserveNrDirty records a guest's published nr_dirty count on e,
// stamping LastGrow when the count rose. A count on an unobserved entry
// is ignored — the presence bit always arrives first.
func (mo *Monitor) ObserveNrDirty(e *DirtyEntry, nr int64) {
	if !e.observed {
		return
	}
	if nr > e.st.Nr {
		e.st.LastGrow = mo.h.k.Now()
	}
	e.st.Nr = nr
}

// Forget drops e from the dirty slice and returns it to unobserved, for
// a disabled guest's disk.
func (mo *Monitor) Forget(e *DirtyEntry) {
	if e.pos >= 0 {
		mo.drop(e)
	}
	*e = NewDirtyEntry(e.dom, e.disk)
}

// drop takes e, which holds dirty pages, out of the dirty slice: the last
// entry moves into its slot.
func (mo *Monitor) drop(e *DirtyEntry) {
	last := len(mo.dirty) - 1
	mo.dirty[e.pos] = mo.dirty[last]
	mo.dirty[e.pos].pos = e.pos
	mo.dirty[last] = nil
	mo.dirty = mo.dirty[:last]
	e.pos = -1
}

// AnyDirty reports whether any observed guest disk holds dirty pages.
func (mo *Monitor) AnyDirty() bool { return len(mo.dirty) > 0 }

// BestDirty returns Algorithm 1's argmax: the settled entry with the
// most dirty pages, lowest (dom, disk) first on ties, skipping domains
// rejected by ok (fallback guests whose flusher owns their pages; nil
// rejects none). Entries whose count last grew within the settle window
// of now are mid-burst and never returned. ok is asked only about an
// entry that would beat the best found so far.
func (mo *Monitor) BestDirty(now sim.Time, ok func(store.DomID) bool) (dom store.DomID, disk string, nr int64, found bool) {
	var best *DirtyEntry
	for _, e := range mo.dirty {
		if now-e.st.LastGrow <= dirtySettleWindow || best != nil && !dirtyLess(e, best) || ok != nil && !ok(e.dom) {
			continue
		}
		best = e
	}
	if best == nil {
		return 0, "", 0, false
	}
	return best.dom, best.disk, best.st.Nr, true
}

// DirtyOrderInvertedForTest flips BestDirty's ranking — the argmax
// becomes an argmin and ties resolve to the highest dom — so the golden
// perturbation self-test can prove the fixtures pin the exact winner
// order. Nothing but that test may set it: a ranking that quietly
// diverged from Algorithm 1's must fail trace parity, not ship.
var DirtyOrderInvertedForTest = false

// dirtyLess ranks dirty entries for BestDirty: most dirty pages first,
// ties to the lowest (dom, disk).
func dirtyLess(a, b *DirtyEntry) bool {
	if a.st.Nr != b.st.Nr {
		if DirtyOrderInvertedForTest {
			return a.st.Nr < b.st.Nr
		}
		return a.st.Nr > b.st.Nr
	}
	if a.dom != b.dom {
		if DirtyOrderInvertedForTest {
			return a.dom > b.dom
		}
		return a.dom < b.dom
	}
	return a.disk < b.disk
}
