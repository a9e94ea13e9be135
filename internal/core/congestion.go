package core

import (
	"strconv"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

type congEntry struct {
	dom   store.DomID
	disk  string
	since sim.Time // when the guest was confirmed held (holdDeadline clock)
}

// congKey identifies one held (guest, disk) pair for O(1) dedup.
type congKey struct {
	dom  store.DomID
	disk string
}

// releaseState tracks an unacknowledged release_request.
type releaseState struct {
	disk    string
	retries int
	timer   *sim.Event
}

// congestController is Algorithm 2, collaborative congestion control: it
// answers guest congestion queries with the host's verdict, keeps
// confirmed-held guests on a relief cadence, and releases them in FIFO
// order with a random stagger once the host device decongests. The
// stagger draws come from the manager's stream, in hold order, so
// fixed-seed runs replay identically.
type congestController struct {
	m   *Manager
	cfg *ManagerConfig
	mon *hypervisor.Monitor

	relief cadence

	// held is FIFO in confirm order, so since is monotone along it:
	// holdDeadline expiry is always a prefix, and the expiry check stops
	// at the first live entry instead of scanning every held guest.
	// heldSet mirrors membership for O(1) dedup on re-confirms.
	held       []congEntry
	heldSet    map[congKey]bool
	pendingRel map[store.DomID]*releaseState

	// relieves counts releases when congestionTick decides them; the
	// congest.release record follows after the stagger, so at any
	// instant the kind's count may still trail the decisions taken.
	relieves uint64
}

func newCongestController(m *Manager) *congestController {
	cc := &congestController{
		m:          m,
		cfg:        &m.cfg,
		mon:        m.h.Monitor(),
		heldSet:    map[congKey]bool{},
		pendingRel: map[store.DomID]*releaseState{},
	}
	cc.relief = cadence{k: m.k, period: congestionCheckInterval, tick: func() bool {
		cc.congestionTick()
		return len(cc.held) > 0
	}}
	return cc
}

// detach forgets all congestion state about dom, reporting whether dom
// was held.
func (cc *congestController) detach(dom store.DomID) (wasHeld bool) {
	if rs := cc.pendingRel[dom]; rs != nil {
		cc.m.k.Cancel(rs.timer)
		delete(cc.pendingRel, dom)
	}
	kept := cc.held[:0]
	for _, e := range cc.held {
		if e.dom == dom {
			wasHeld = true
			delete(cc.heldSet, congKey{dom: e.dom, disk: e.disk})
		} else {
			kept = append(kept, e)
		}
	}
	cc.held = kept
	return wasHeld
}

// fellBack stops expecting acks from a guest we no longer trust, and
// publishes one last best-effort release if the guest was held: a
// live-but-slow driver will act on it; a dead one leaves its queues to
// the local controller. Nothing may stay parked behind a dead protocol.
func (cc *congestController) fellBack(dom store.DomID) {
	if cc.detach(dom) {
		cc.m.st.WriteBoolCursor(store.Dom0, &cc.m.drivers[dom].release, true)
	}
}

// handleCongestQuery answers a guest's congestion query: confirm when the
// host device is genuinely overcrowded, otherwise release the guest.
func (cc *congestController) handleCongestQuery(dom store.DomID, disk string) {
	m := cc.m
	if !m.live.cooperative(dom) {
		// No verdict for a fallback guest: its kernel's local avoidance
		// (engage at 7/8, release below 13/16) is exactly Baseline.
		return
	}
	// Reset the query flag so subsequent queries re-fire the watch.
	m.st.WriteBoolCursor(store.Dom0, m.diskKey(dom, disk, diskCongestQuery), false)
	if cc.mon.IOCongested() {
		cc.recordCongestion(trace.KindCongestConfirm, dom, disk)
		m.st.WriteBoolCursor(store.Dom0, m.diskKey(dom, disk, diskCongested), true)
		key := congKey{dom: dom, disk: disk}
		if cc.heldSet[key] {
			return
		}
		cc.heldSet[key] = true
		cc.held = append(cc.held, congEntry{dom: dom, disk: disk, since: m.k.Now()})
		cc.relief.arm()
		return
	}
	cc.requestRelease(dom, disk, trace.KindCongestVeto)
}

// requestRelease records the verdict, publishes release_request=1 and
// arms the bounded ack-retry machinery: a lost notification must not
// leave the guest's producers parked forever.
func (cc *congestController) requestRelease(dom store.DomID, disk string, kind trace.Kind) {
	cc.recordCongestion(kind, dom, disk)
	cc.m.st.WriteBoolCursor(store.Dom0, &cc.m.drivers[dom].release, true)
	cc.armReleaseRetry(dom, disk)
}

func (cc *congestController) armReleaseRetry(dom store.DomID, disk string) {
	if cc.pendingRel[dom] != nil {
		return
	}
	rs := &releaseState{disk: disk}
	cc.pendingRel[dom] = rs
	rs.timer = cc.m.k.After(releaseAckTimeout, func() { cc.releaseRetryTick(dom, rs) })
}

func (cc *congestController) releaseRetryTick(dom store.DomID, rs *releaseState) {
	m := cc.m
	if cc.pendingRel[dom] != rs {
		return
	}
	// The guest resets release_request to 0 when it acts; a still-set key
	// means the order (or its notification) was lost.
	release := &m.drivers[dom].release
	if v, _ := m.st.ReadBoolCursor(store.Dom0, release); !v {
		delete(cc.pendingRel, dom)
		return
	}
	if rs.retries >= releaseMaxRetries {
		delete(cc.pendingRel, dom)
		m.rec.Record(trace.Record{
			Kind: trace.KindReleaseTimeout, Dom: int(dom), Disk: rs.disk,
			Value: strconv.Itoa(rs.retries),
		})
		m.live.enterFallback(dom, "release-deadline")
		return
	}
	rs.retries++
	m.rec.Record(trace.Record{
		Kind: trace.KindReleaseRetry, Dom: int(dom), Disk: rs.disk,
		Value: strconv.Itoa(rs.retries),
	})
	// Re-publish: the write re-fires the guest's watch even though the
	// value does not change.
	m.st.WriteBoolCursor(store.Dom0, release, true)
	rs.timer = m.k.After(releaseAckTimeout, func() { cc.releaseRetryTick(dom, rs) })
}

func (cc *congestController) noteReleaseAck(dom store.DomID) {
	if rs := cc.pendingRel[dom]; rs != nil {
		cc.m.k.Cancel(rs.timer)
		delete(cc.pendingRel, dom)
	}
}

// recordCongestion traces an Algorithm 2 verdict with the host queue
// depths that justified it.
func (cc *congestController) recordCongestion(kind trace.Kind, dom store.DomID, disk string) {
	cc.m.rec.Record(trace.Record{
		Kind: kind, Dom: int(dom), Disk: disk,
		QueueDepth: cc.mon.QueueBacklog(),
		DevPending: cc.mon.DevPending(),
	})
}

// congestionTick is Algorithm 2's relief branch: once the host device is
// no longer congested, release held VMs in FIFO order, interleaved with a
// random 0–99 ms stagger.
func (cc *congestController) congestionTick() {
	m := cc.m
	if len(cc.held) == 0 {
		return
	}
	now := m.k.Now()
	if cc.mon.IOCongested() {
		// Still congested — but nobody may be held past holdDeadline: a
		// device stuck in a degraded state (or a torn congested key)
		// must not park a guest's producers forever. since is monotone
		// along held, so the expired set is a prefix: the check is O(1)
		// when nothing expired, not a scan over every held guest.
		cut := 0
		for cut < len(cc.held) && now-cc.held[cut].since >= holdDeadline {
			e := cc.held[cut]
			cut++
			delete(cc.heldSet, congKey{dom: e.dom, disk: e.disk})
			cc.requestRelease(e.dom, e.disk, trace.KindHoldTimeout)
		}
		if cut > 0 {
			cc.held = append(cc.held[:0], cc.held[cut:]...)
		}
		return
	}
	var offset sim.Duration
	for _, e := range cc.held {
		dom, disk := e.dom, e.disk
		delete(cc.heldSet, congKey{dom: dom, disk: disk})
		cc.relieves++
		m.k.After(offset, func() {
			if m.drivers[dom] == nil {
				return // detached during the stagger
			}
			cc.requestRelease(dom, disk, trace.KindCongestRelease)
		})
		offset += sim.Duration(m.rng.Int63n(int64(cc.cfg.ReleaseStaggerMax)))
	}
	cc.held = cc.held[:0]
}
