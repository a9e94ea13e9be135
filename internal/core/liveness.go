package core

import (
	"sort"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// liveness is the cross-cutting degradation middleware that wraps every
// policy controller (docs/FAULTS.md). The collaborative functions assume
// a live driver on the other side of the store; when one guest stops
// cooperating — no driver, crashed driver, stuck sync, lost
// notifications — liveness demotes exactly that guest to Baseline
// behavior and notifies each registered FallbackHook so the policies can
// unstick anything they were holding or expecting from it. Siblings keep
// full collaboration.
//
// Policies consume it through two calls: cooperative(dom) at decision
// sites (which lazily runs the heartbeat check, so detection costs
// nothing while everyone is healthy) and inFallback(dom) for read-only
// gating. They never touch the fallback state directly.
type liveness struct {
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder

	penalty sim.Duration // FallbackPenalty

	// present reports whether a driver is attached for dom; a guest
	// without one (never enabled, or disabled) is never cooperative.
	present func(store.DomID) bool
	// hooks receive demote/restore callbacks in registration order.
	hooks []FallbackHook

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

func newLiveness(k *sim.Kernel, st *store.Store, rec *trace.Recorder,
	cfg *ManagerConfig, present func(store.DomID) bool) *liveness {
	return &liveness{
		k:        k,
		st:       st,
		rec:      rec,
		penalty:  cfg.FallbackPenalty,
		present:  present,
		beats:    map[store.DomID]*beatNode{},
		fallback: map[store.DomID]*fallbackState{},
	}
}

// Routes: liveness consumes the guest driver's registration and
// heartbeat keys.
func (lv *liveness) Routes() Routes {
	return Routes{DomainKeys: []string{keyHeartbeat, keyDriverPresent}}
}

func (lv *liveness) OnStoreEvent(ev StoreEvent) {
	switch ev.Key {
	case keyHeartbeat:
		lv.noteHeartbeat(ev.Dom)
	case keyDriverPresent:
		if ev.Value == "1" {
			lv.noteDriverRegistered(ev.Dom)
		}
	}
}

// cooperative reports whether dom may participate in collaborative
// decisions, lazily demoting it on a stale heartbeat — the check runs at
// decision sites, so detection costs nothing while everyone is healthy.
func (lv *liveness) cooperative(dom store.DomID) bool {
	if !lv.present(dom) {
		return false
	}
	if lv.fallback[dom] != nil {
		return false
	}
	if n := lv.beats[dom]; n != nil && lv.k.Now()-n.last > heartbeatTimeout {
		lv.rec.Record(trace.Record{
			Kind: trace.KindHeartbeatMiss, Dom: int(dom),
			Latency: lv.k.Now() - n.last,
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
	now := lv.k.Now()
	var stale []store.DomID
	for n := lv.beatHead; n != nil && now-n.last > heartbeatTimeout; n = n.next {
		if lv.fallback[n.dom] == nil && lv.present(n.dom) && keep(n.dom) {
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
		n.last = lv.k.Now()
		return
	} else {
		lv.beatUnlink(n)
	}
	n.last = lv.k.Now()
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

func (lv *liveness) noteHeartbeat(dom store.DomID) {
	lv.noteBeat(dom)
	// A fallen-back guest that has served its penalty and is beating
	// again earns its way back to collaborative mode.
	if fb := lv.fallback[dom]; fb != nil && lv.k.Now()-fb.since >= lv.penalty {
		lv.exitFallback(dom, "heartbeat-resumed")
	}
}

func (lv *liveness) noteDriverRegistered(dom store.DomID) {
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
	lv.fallback[dom] = &fallbackState{reason: reason, since: lv.k.Now()}
	lv.rec.Record(trace.Record{Kind: trace.KindFallbackEnter, Dom: int(dom), Value: reason})
	lv.st.WriteBool(store.Dom0, store.DomainPath(dom)+"/"+keyFallback, true)
	for _, h := range lv.hooks {
		h.OnFallback(dom)
	}
}

// exitFallback restores dom to collaborative mode with a clean slate.
func (lv *liveness) exitFallback(dom store.DomID, reason string) {
	if lv.fallback[dom] == nil {
		return
	}
	delete(lv.fallback, dom)
	lv.rec.Record(trace.Record{Kind: trace.KindFallbackExit, Dom: int(dom), Value: reason})
	lv.st.WriteBool(store.Dom0, store.DomainPath(dom)+"/"+keyFallback, false)
	lv.noteBeat(dom) // fresh grace window
	for _, h := range lv.hooks {
		h.OnRestore(dom)
	}
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
