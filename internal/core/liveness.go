package core

import (
	"sort"

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
	if now := lv.m.k.Now(); now-drv.lastBeat > heartbeatTimeout {
		lv.m.rec.Record(trace.Record{
			Kind: trace.KindHeartbeatMiss, Dom: int(drv.id),
			Latency: now - drv.lastBeat,
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
// mirror, in ascending dom order — what a decision site's cooperative()
// calls over that dom set would do. The flush controller runs it before
// each argmax, so a guest that stopped beating is demoted, and recorded,
// before Algorithm 1 picks among the rest.
func (lv *liveness) sweepStale() {
	now := lv.m.k.Now()
	var stale []*Driver
	for _, d := range lv.m.drivers {
		if !d.fellBack && now-d.lastBeat > heartbeatTimeout && d.dirtyObserved() {
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

// noteBeat stamps drv's heartbeat at now.
func (lv *liveness) noteBeat(drv *Driver) { drv.lastBeat = lv.m.k.Now() }

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
