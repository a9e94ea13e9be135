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
// through the Observe methods and unlinked with Forget; the Monitor keeps
// no per-guest map, only its index over the entries it was handed.
// Everything else is sampled from the host on demand.
//
// The dirty index is incremental so Algorithm 1's "argmax nr_i over
// settled guests" is O(log n) per update and O(1) per decision instead
// of a per-tick scan over every guest:
//
//   - entries whose count grew within the settle window (mid-burst
//     writers Algorithm 1 must leave alone) sit on the recent list,
//     ordered by LastGrow — updates stamp the current instant, so a
//     grown entry moves to the back in O(1) and expiry is a prefix pop;
//   - entries past the window sit in the settled max-heap, ordered by
//     (Nr desc, dom asc, disk asc) — exactly the winner order of the
//     replaced scan, whose first-wins-on-ties rule resolved equal
//     counts toward the lowest (dom, disk).
//
// Entries without dirty pages are in neither container. AnyDirty is a
// counter. FuzzDirtyIndex holds the index to that scan after every
// operation, and the golden traces pin end-to-end behavior.
type Monitor struct {
	h *Host

	dirtyCount int           // entries with HasDirty set
	settled    []*DirtyEntry // max-heap, (Nr desc, dom asc, disk asc)
	// recent list bounds, LastGrow-ascending; nil when empty.
	recentHead, recentTail *DirtyEntry

	lat []float64 // CoreSnapshot's Latencies, reused
}

// dirtySettleWindow is Algorithm 1's mid-burst guard, taken literally: a
// disk whose dirty count grew within the last 200 ms is still being
// written — leave it alone.
const dirtySettleWindow = 200 * sim.Millisecond

// DirtyEntry is one (guest, disk) dirty-page mirror plus its place in
// the Monitor's index. Its holder owns it (NewDirtyEntry, then by value
// wherever it lives) and must Forget it before dropping it.
type DirtyEntry struct {
	dom  store.DomID
	disk string
	st   DirtyState

	pos        int // settled-heap index; -1 when not in the heap
	prev, next *DirtyEntry
	listed     bool // on the recent list
	observed   bool // a presence bit has arrived
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
	if has == e.st.HasDirty {
		if !has {
			e.st.Nr = 0
		}
		return
	}
	e.st.HasDirty = has
	if !has {
		e.st.Nr = 0
		mo.unindex(e)
		mo.dirtyCount--
		return
	}
	mo.dirtyCount++
	mo.index(e, mo.h.k.Now())
}

// ObserveNrDirty records a guest's published nr_dirty count on e,
// stamping LastGrow when the count rose. A count on an unobserved entry
// is ignored — the presence bit always arrives first.
func (mo *Monitor) ObserveNrDirty(e *DirtyEntry, nr int64) {
	if !e.observed {
		return
	}
	if nr > e.st.Nr {
		e.st.Nr = nr
		e.st.LastGrow = mo.h.k.Now()
		// A growing entry is mid-burst: shelve it on the recent list
		// (move-to-back keeps the list LastGrow-ordered, since stamps
		// are monotone).
		if e.pos >= 0 {
			mo.heapRemove(e)
		}
		if e.listed {
			mo.listRemove(e)
		}
		if e.st.HasDirty {
			mo.listPushBack(e)
		}
		return
	}
	if nr == e.st.Nr {
		return
	}
	e.st.Nr = nr
	if e.pos >= 0 {
		// Shrank in place: restore heap order (a smaller key only sinks).
		mo.siftDown(e.pos)
	}
}

// Forget unlinks e from the index and returns it to unobserved, for a
// removed or demoted guest's disk.
func (mo *Monitor) Forget(e *DirtyEntry) {
	if e.st.HasDirty {
		mo.dirtyCount--
	}
	mo.unindex(e)
	*e = NewDirtyEntry(e.dom, e.disk)
}

// AnyDirty reports whether any observed guest disk holds dirty pages.
func (mo *Monitor) AnyDirty() bool { return mo.dirtyCount > 0 }

// BestDirty returns Algorithm 1's argmax: the settled entry with the
// most dirty pages, lowest (dom, disk) first on ties, skipping domains
// rejected by ok (fallback guests whose flusher owns their pages).
// Entries whose count last grew within the settle window of now are
// mid-burst and never returned. The winner stays indexed — it leaves
// the heap only when its dirty pages do.
func (mo *Monitor) BestDirty(now sim.Time, ok func(store.DomID) bool) (dom store.DomID, disk string, nr int64, found bool) {
	// Promote entries whose burst has settled (LastGrow-ordered prefix).
	for e := mo.recentHead; e != nil && now-e.st.LastGrow > dirtySettleWindow; e = mo.recentHead {
		mo.listRemove(e)
		mo.heapPush(e)
	}
	// Pop rejected domains aside, then restore them: rejection is a
	// liveness verdict about the guest, not about its dirty pages.
	var stash []*DirtyEntry
	for len(mo.settled) > 0 {
		top := mo.settled[0]
		if ok == nil || ok(top.dom) {
			dom, disk, nr, found = top.dom, top.disk, top.st.Nr, true
			break
		}
		mo.heapRemove(top)
		stash = append(stash, top)
	}
	for _, e := range stash {
		mo.heapPush(e)
	}
	return dom, disk, nr, found
}

// index shelves a newly dirty entry: onto the recent list when its last
// growth is within the settle window of now, else into the settled heap.
func (mo *Monitor) index(e *DirtyEntry, now sim.Time) {
	if now-e.st.LastGrow > dirtySettleWindow {
		mo.heapPush(e)
		return
	}
	// Insert in LastGrow order from the back; re-dirtied entries carry a
	// fresh-enough stamp that this walk is short.
	at := mo.recentTail
	for at != nil && at.st.LastGrow > e.st.LastGrow {
		at = at.prev
	}
	mo.listInsertAfter(e, at)
}

// unindex removes an entry from whichever container holds it.
func (mo *Monitor) unindex(e *DirtyEntry) {
	if e.pos >= 0 {
		mo.heapRemove(e)
	}
	if e.listed {
		mo.listRemove(e)
	}
}

// DirtyOrderInvertedForTest flips the settled-heap comparison — the
// argmax becomes an argmin and ties resolve to the highest dom — so the
// golden perturbation self-test can prove the fixtures pin the index's
// exact winner order. Nothing but that test may set it: an index whose
// order quietly diverged from the replaced scan's semantics must fail
// trace parity, not ship.
var DirtyOrderInvertedForTest = false

// dirtyLess orders the settled heap: most dirty pages first, ties to
// the lowest (dom, disk) — the winner order of the replaced scan.
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

func (mo *Monitor) heapPush(e *DirtyEntry) {
	e.pos = len(mo.settled)
	mo.settled = append(mo.settled, e)
	mo.siftUp(e.pos)
}

func (mo *Monitor) heapRemove(e *DirtyEntry) {
	i, last := e.pos, len(mo.settled)-1
	mo.settled[i] = mo.settled[last]
	mo.settled[i].pos = i
	mo.settled[last] = nil
	mo.settled = mo.settled[:last]
	e.pos = -1
	if i < last {
		mo.siftDown(i)
		mo.siftUp(i)
	}
}

func (mo *Monitor) siftUp(i int) {
	h := mo.settled
	for i > 0 {
		parent := (i - 1) / 2
		if !dirtyLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].pos, h[parent].pos = i, parent
		i = parent
	}
}

func (mo *Monitor) siftDown(i int) {
	h := mo.settled
	n := len(h)
	for {
		best := i
		if l := 2*i + 1; l < n && dirtyLess(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && dirtyLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		h[i].pos, h[best].pos = i, best
		i = best
	}
}

func (mo *Monitor) listPushBack(e *DirtyEntry) { mo.listInsertAfter(e, mo.recentTail) }

// listInsertAfter links e after at (at == nil inserts at the head).
func (mo *Monitor) listInsertAfter(e, at *DirtyEntry) {
	e.listed = true
	e.prev = at
	if at == nil {
		e.next = mo.recentHead
		mo.recentHead = e
	} else {
		e.next = at.next
		at.next = e
	}
	if e.next != nil {
		e.next.prev = e
	} else {
		mo.recentTail = e
	}
}

func (mo *Monitor) listRemove(e *DirtyEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		mo.recentHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		mo.recentTail = e.prev
	}
	e.prev, e.next, e.listed = nil, nil, false
}
