package hypervisor

import (
	"sort"

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
// Per-guest dirty state is fed by whoever mirrors the guest's published
// counters (the flush controller's store-event handler) via the
// Observe methods; everything else is sampled from the host on demand.
//
// The dirty mirror is indexed incrementally so Algorithm 1's
// "argmax nr_i over settled guests" is O(log n) per update and O(1)
// per decision instead of a per-tick scan over every guest:
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
// counter. TestDirtyIndexMatchesScan pins index-vs-scan equivalence and
// the golden traces pin end-to-end behavior.
type Monitor struct {
	h     *Host
	dirty map[store.DomID]map[string]*dirtyEntry

	dirtyCount int           // entries with HasDirty set
	settled    []*dirtyEntry // max-heap, (Nr desc, dom asc, disk asc)
	settleWin  sim.Duration
	// recent list bounds, LastGrow-ascending; nil when empty.
	recentHead, recentTail *dirtyEntry

	lat []float64 // CoreSnapshot's Latencies, reused
}

// dirtyEntry is one (guest, disk) mirror plus its index position.
type dirtyEntry struct {
	dom  store.DomID
	disk string
	st   DirtyState

	pos        int // settled-heap index; -1 when not in the heap
	prev, next *dirtyEntry
	listed     bool // on the recent list
}

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
		h.mon = &Monitor{h: h, dirty: map[store.DomID]map[string]*dirtyEntry{}}
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
// histogram (0 when tracing is off or nothing has completed). The
// federation's host agents publish it as the registry's p99 health key.
// It is the one Monitor reading that still depends on tracing: feeding
// it from the always-on path moves the cluster golden's placement
// scores (ROADMAP item 5).
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

// ActiveVCPUs reports the summed VCPU count of resident guests — the
// capacity quantity cluster placement budgets against (docs/CLUSTER.md).
// Guest order does not matter for a sum, so the map iteration is safe.
func (mo *Monitor) ActiveVCPUs() int {
	n := 0
	for _, rt := range mo.h.guests {
		n += rt.G.NumVCPUs()
	}
	return n
}

// SetDirtySettleWindow sets how long a dirty count must stop growing
// before its entry is considered settled (Algorithm 1's mid-burst
// guard). The flush controller configures it at attach; changing the
// window does not re-shelve existing entries, so set it before traffic.
func (mo *Monitor) SetDirtySettleWindow(d sim.Duration) { mo.settleWin = d }

// ObserveDirty records a guest's has_dirty_pages transition and reports
// the new presence bit (the caller arms its check cadence on true).
func (mo *Monitor) ObserveDirty(dom store.DomID, disk string, has bool) {
	byDisk := mo.dirty[dom]
	if byDisk == nil {
		byDisk = map[string]*dirtyEntry{}
		mo.dirty[dom] = byDisk
	}
	e := byDisk[disk]
	if e == nil {
		e = &dirtyEntry{dom: dom, disk: disk, pos: -1}
		byDisk[disk] = e
	}
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

// ObserveNrDirty records a guest's published nr_dirty count, stamping
// LastGrow when the count rose. Counts for unobserved (guest, disk)
// pairs are ignored — the presence bit always arrives first.
func (mo *Monitor) ObserveNrDirty(dom store.DomID, disk string, nr int64) {
	byDisk := mo.dirty[dom]
	if byDisk == nil {
		return
	}
	e := byDisk[disk]
	if e == nil {
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

// ForgetGuest drops all dirty state for a removed or demoted guest.
func (mo *Monitor) ForgetGuest(dom store.DomID) {
	for _, e := range mo.dirty[dom] {
		if e.st.HasDirty {
			mo.dirtyCount--
		}
		mo.unindex(e)
	}
	delete(mo.dirty, dom)
}

// AnyDirty reports whether any observed guest disk holds dirty pages.
func (mo *Monitor) AnyDirty() bool { return mo.dirtyCount > 0 }

// Observed reports whether any dirty state has been recorded for dom —
// the set the flush controller's liveness sweep runs over (it mirrors
// the demotion side effects of the replaced DirtyDoms scan).
func (mo *Monitor) Observed(dom store.DomID) bool {
	_, ok := mo.dirty[dom]
	return ok
}

// DirtyDisks lists a domain's observed disks in ascending name order.
func (mo *Monitor) DirtyDisks(dom store.DomID) []string {
	byDisk := mo.dirty[dom]
	out := make([]string, 0, len(byDisk))
	for name := range byDisk {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dirty returns the state for one (guest, disk) pair.
func (mo *Monitor) Dirty(dom store.DomID, disk string) (DirtyState, bool) {
	if e := mo.dirty[dom][disk]; e != nil {
		return e.st, true
	}
	return DirtyState{}, false
}

// BestDirty returns Algorithm 1's argmax: the settled entry with the
// most dirty pages, lowest (dom, disk) first on ties, skipping domains
// rejected by ok (fallback guests whose flusher owns their pages).
// Entries whose count last grew within the settle window of now are
// mid-burst and never returned. The winner stays indexed — it leaves
// the heap only when its dirty pages do.
func (mo *Monitor) BestDirty(now sim.Time, ok func(store.DomID) bool) (dom store.DomID, disk string, nr int64, found bool) {
	// Promote entries whose burst has settled (LastGrow-ordered prefix).
	for e := mo.recentHead; e != nil && now-e.st.LastGrow > mo.settleWin; e = mo.recentHead {
		mo.listRemove(e)
		mo.heapPush(e)
	}
	// Pop rejected domains aside, then restore them: rejection is a
	// liveness verdict about the guest, not about its dirty pages.
	var stash []*dirtyEntry
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
func (mo *Monitor) index(e *dirtyEntry, now sim.Time) {
	if now-e.st.LastGrow > mo.settleWin {
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
func (mo *Monitor) unindex(e *dirtyEntry) {
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
func dirtyLess(a, b *dirtyEntry) bool {
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

func (mo *Monitor) heapPush(e *dirtyEntry) {
	e.pos = len(mo.settled)
	mo.settled = append(mo.settled, e)
	mo.siftUp(e.pos)
}

func (mo *Monitor) heapRemove(e *dirtyEntry) {
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

func (mo *Monitor) listPushBack(e *dirtyEntry) { mo.listInsertAfter(e, mo.recentTail) }

// listInsertAfter links e after at (at == nil inserts at the head).
func (mo *Monitor) listInsertAfter(e, at *dirtyEntry) {
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

func (mo *Monitor) listRemove(e *dirtyEntry) {
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
