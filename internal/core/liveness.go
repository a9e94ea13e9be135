package core

import (
	"sort"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// liveness is the cross-cutting degradation middleware under every
// policy (docs/FAULTS.md). The collaborative functions assume a live
// driver on the other side of the store; when one guest stops
// cooperating — no driver, crashed driver, stuck sync, lost
// notifications — liveness demotes exactly that guest to Baseline
// behavior and tells the manager, whose policies unstick anything they
// were holding or expecting from it. Siblings keep full collaboration.
//
// Policies consume it through two calls: cooperative(dom) at decision
// sites (which lazily runs the heartbeat check, so detection costs
// nothing while everyone is healthy) and inFallback(dom) for read-only
// gating. They never touch the fallback state directly.
type liveness struct {
	m *Manager

	// beats holds per-guest heartbeat stamps, doubly linked in stamp
	// order (stamps are always "now", so a beat moves its node to the
	// back in O(1) and the stale set is always a prefix). This keeps
	// sweepStale proportional to the number of stale guests, not the
	// number of guests.
	beats              map[store.DomID]*beatNode
	beatHead, beatTail *beatNode
	fallback           map[store.DomID]*fallbackState
}

// beatNode is one guest's last-heartbeat stamp on the beat list.
type beatNode struct {
	dom        store.DomID
	last       sim.Time
	prev, next *beatNode
}

// fallbackState marks a guest demoted to Baseline behavior.
type fallbackState struct {
	reason string
	since  sim.Time
}

func newLiveness(m *Manager) *liveness {
	return &liveness{
		m:        m,
		beats:    map[store.DomID]*beatNode{},
		fallback: map[store.DomID]*fallbackState{},
	}
}

// cooperative reports whether dom may participate in collaborative
// decisions, lazily demoting it on a stale heartbeat — the check runs at
// decision sites, so detection costs nothing while everyone is healthy.
func (lv *liveness) cooperative(dom store.DomID) bool {
	if lv.m.drivers[dom] == nil {
		// Never enabled, or disabled: no driver to cooperate with.
		return false
	}
	if lv.fallback[dom] != nil {
		return false
	}
	if n := lv.beats[dom]; n != nil && lv.m.k.Now()-n.last > heartbeatTimeout {
		lv.m.rec.Record(trace.Record{
			Kind: trace.KindHeartbeatMiss, Dom: int(dom),
			Latency: lv.m.k.Now() - n.last,
		})
		lv.enterFallback(dom, "heartbeat")
		return false
	}
	return true
}

// sweepStale demotes every stale-hearted guest accepted by keep, in
// ascending dom order. It replicates what a decision site's
// cooperative() calls over that dom set would do, but walks only the
// stale prefix of the beat list — O(stale guests), not O(guests). The
// flush controller runs it with keep = Monitor.Observed before each
// argmax, preserving the demotion side effects of the replaced
// every-dirty-dom scan.
func (lv *liveness) sweepStale(keep func(store.DomID) bool) {
	now := lv.m.k.Now()
	var stale []store.DomID
	for n := lv.beatHead; n != nil && now-n.last > heartbeatTimeout; n = n.next {
		if lv.fallback[n.dom] == nil && lv.m.drivers[n.dom] != nil && keep(n.dom) {
			stale = append(stale, n.dom)
		}
	}
	if len(stale) == 0 {
		return
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	for _, dom := range stale {
		lv.cooperative(dom)
	}
}

// noteBeat stamps dom's heartbeat at now, keeping the beat list in
// stamp order (move to back).
func (lv *liveness) noteBeat(dom store.DomID) {
	n := lv.beats[dom]
	if n == nil {
		n = &beatNode{dom: dom}
		lv.beats[dom] = n
	} else if n == lv.beatTail {
		n.last = lv.m.k.Now()
		return
	} else {
		lv.beatUnlink(n)
	}
	n.last = lv.m.k.Now()
	n.prev = lv.beatTail
	if lv.beatTail != nil {
		lv.beatTail.next = n
	} else {
		lv.beatHead = n
	}
	lv.beatTail = n
}

func (lv *liveness) beatUnlink(n *beatNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		lv.beatHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		lv.beatTail = n.prev
	}
	n.prev, n.next = nil, nil
}

// inFallback is the read-only probe (no lazy heartbeat check).
func (lv *liveness) inFallback(dom store.DomID) bool { return lv.fallback[dom] != nil }

// noteHeartbeat and noteDriverRegistered ignore a dom with no driver: a
// departed guest's last writes are delivered after DisableGuest, and a
// beat stamped for it would sit at the head of the stale prefix
// sweepStale walks, forever.
func (lv *liveness) noteHeartbeat(dom store.DomID) {
	if lv.m.drivers[dom] == nil {
		return
	}
	lv.noteBeat(dom)
	// A fallen-back guest that has served its penalty and is beating
	// again earns its way back to collaborative mode.
	if fb := lv.fallback[dom]; fb != nil && lv.m.k.Now()-fb.since >= lv.m.cfg.FallbackPenalty {
		lv.exitFallback(dom, "heartbeat-resumed")
	}
}

func (lv *liveness) noteDriverRegistered(dom store.DomID) {
	if lv.m.drivers[dom] == nil {
		return
	}
	lv.noteBeat(dom)
	if lv.fallback[dom] != nil {
		lv.exitFallback(dom, "driver-registered")
	}
}

// enterFallback demotes dom to Baseline behavior, then lets every policy
// unstick anything it was holding or expecting from the guest.
func (lv *liveness) enterFallback(dom store.DomID, reason string) {
	if lv.fallback[dom] != nil {
		return
	}
	lv.fallback[dom] = &fallbackState{reason: reason, since: lv.m.k.Now()}
	lv.m.rec.Record(trace.Record{Kind: trace.KindFallbackEnter, Dom: int(dom), Value: reason})
	lv.m.st.WriteBoolCursor(store.Dom0, &lv.m.drivers[dom].fallback, true)
	lv.m.fellBack(dom)
}

// exitFallback restores dom to collaborative mode with a clean slate.
func (lv *liveness) exitFallback(dom store.DomID, reason string) {
	if lv.fallback[dom] == nil {
		return
	}
	delete(lv.fallback, dom)
	lv.m.rec.Record(trace.Record{Kind: trace.KindFallbackExit, Dom: int(dom), Value: reason})
	lv.m.st.WriteBoolCursor(store.Dom0, &lv.m.drivers[dom].fallback, false)
	lv.noteBeat(dom) // fresh grace window
	lv.m.restored(dom)
}

// noteAttached seeds the grace window: registration counts as the first
// heartbeat (the real one arrives through the store a notification
// latency later).
func (lv *liveness) noteAttached(dom store.DomID) { lv.noteBeat(dom) }

// forget drops all liveness state for a removed guest.
func (lv *liveness) forget(dom store.DomID) {
	if n := lv.beats[dom]; n != nil {
		lv.beatUnlink(n)
		delete(lv.beats, dom)
	}
	delete(lv.fallback, dom)
}
