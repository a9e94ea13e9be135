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
// Policies consume it through cooperative(drv) at decision sites (which
// lazily runs the heartbeat check, so detection costs nothing while
// everyone is healthy) and read Driver.fellBack for read-only gating;
// only liveness writes a driver's liveness fields.
type liveness struct {
	m *Manager

	// The beat list: every enabled guest's driver, doubly linked in
	// heartbeat-stamp order (stamps are always "now", so a beat moves its
	// driver to the back in O(1) and the stale set is always a prefix).
	// This keeps sweepStale proportional to the number of stale guests,
	// not the number of guests.
	beatHead, beatTail *Driver
}

// beatNode is one guest's last-heartbeat stamp and its links on the beat
// list; it lives in the guest's Driver.
type beatNode struct {
	last       sim.Time
	prev, next *Driver
}

func newLiveness(m *Manager) *liveness { return &liveness{m: m} }

// cooperative reports whether drv's guest may participate in
// collaborative decisions, lazily demoting it on a stale heartbeat — the
// check runs at decision sites, so detection costs nothing while everyone
// is healthy. A nil driver (never enabled, or disabled) has nobody to
// cooperate with.
func (lv *liveness) cooperative(drv *Driver) bool {
	if drv == nil || drv.fellBack {
		return false
	}
	if now := lv.m.k.Now(); now-drv.beat.last > heartbeatTimeout {
		lv.m.rec.Record(trace.Record{
			Kind: trace.KindHeartbeatMiss, Dom: int(drv.id),
			Latency: now - drv.beat.last,
		})
		lv.enterFallback(drv, "heartbeat")
		return false
	}
	return true
}

// cooperativeDom is cooperative by dom, the form Monitor.BestDirty asks.
func (lv *liveness) cooperativeDom(dom store.DomID) bool {
	return lv.cooperative(lv.m.drivers[dom])
}

// sweepStale demotes every stale-hearted guest with an observed dirty
// mirror, in ascending dom order. It replicates what a decision site's
// cooperative() calls over that dom set would do, but walks only the
// stale prefix of the beat list — O(stale guests), not O(guests). The
// flush controller runs it before each argmax, preserving the demotion
// side effects of the replaced every-dirty-dom scan.
func (lv *liveness) sweepStale() {
	now := lv.m.k.Now()
	var stale []*Driver
	for d := lv.beatHead; d != nil && now-d.beat.last > heartbeatTimeout; d = d.beat.next {
		if !d.fellBack && d.dirtyObserved() {
			stale = append(stale, d)
		}
	}
	if len(stale) == 0 {
		return
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	for _, d := range stale {
		lv.cooperative(d)
	}
}

// noteBeat stamps drv's heartbeat at now and moves it to the back of the
// beat list, keeping the list in stamp order.
func (lv *liveness) noteBeat(drv *Driver) {
	drv.beat.last = lv.m.k.Now()
	if drv != lv.beatTail {
		lv.beatUnlink(drv)
		lv.beatPushBack(drv)
	}
}

func (lv *liveness) beatPushBack(drv *Driver) {
	drv.beat.prev = lv.beatTail
	if lv.beatTail != nil {
		lv.beatTail.beat.next = drv
	} else {
		lv.beatHead = drv
	}
	lv.beatTail = drv
}

func (lv *liveness) beatUnlink(drv *Driver) {
	n := &drv.beat
	if n.prev != nil {
		n.prev.beat.next = n.next
	} else {
		lv.beatHead = n.next
	}
	if n.next != nil {
		n.next.beat.prev = n.prev
	} else {
		lv.beatTail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (lv *liveness) noteHeartbeat(drv *Driver) {
	lv.noteBeat(drv)
	// A fallen-back guest that has served its penalty and is beating
	// again earns its way back to collaborative mode.
	if drv.fellBack && lv.m.k.Now()-drv.fellBackAt >= lv.m.cfg.FallbackPenalty {
		lv.exitFallback(drv, "heartbeat-resumed")
	}
}

func (lv *liveness) noteDriverRegistered(drv *Driver) {
	lv.noteBeat(drv)
	if drv.fellBack {
		lv.exitFallback(drv, "driver-registered")
	}
}

// enterFallback demotes drv's guest to Baseline behavior, then lets every
// policy unstick anything it was holding or expecting from the guest.
func (lv *liveness) enterFallback(drv *Driver, reason string) {
	if drv.fellBack {
		return
	}
	drv.fellBack, drv.fellBackAt = true, lv.m.k.Now()
	lv.m.rec.Record(trace.Record{Kind: trace.KindFallbackEnter, Dom: int(drv.id), Value: reason})
	lv.m.st.WriteBoolCursor(store.Dom0, &drv.fallback, true)
	lv.m.fellBack(drv)
}

// exitFallback restores drv's guest to collaborative mode with a clean
// slate.
func (lv *liveness) exitFallback(drv *Driver, reason string) {
	if !drv.fellBack {
		return
	}
	drv.fellBack = false
	lv.m.rec.Record(trace.Record{Kind: trace.KindFallbackExit, Dom: int(drv.id), Value: reason})
	lv.m.st.WriteBoolCursor(store.Dom0, &drv.fallback, false)
	lv.noteBeat(drv) // fresh grace window
	lv.m.restored(drv)
}

// noteAttached puts a new guest on the beat list and seeds its grace
// window: registration counts as the first heartbeat (the real one
// arrives through the store a notification latency later).
func (lv *liveness) noteAttached(drv *Driver) {
	drv.beat.last = lv.m.k.Now()
	lv.beatPushBack(drv)
}

// forget takes a removed guest off the beat list.
func (lv *liveness) forget(drv *Driver) { lv.beatUnlink(drv) }
