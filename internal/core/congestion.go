package core

import (
	"slices"
	"strconv"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// congEntry is one held disk on the relief FIFO.
type congEntry struct {
	dd    *diskDriver
	since sim.Time // when the guest was confirmed held (holdDeadline clock)
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
// fixed-seed runs replay identically. A held disk is flagged on its
// diskDriver and an unacknowledged release is its guest's Driver's.
type congestController struct {
	m   *Manager
	cfg *ManagerConfig
	mon *hypervisor.Monitor

	relief cadence

	// held is FIFO in confirm order, so since is monotone along it:
	// holdDeadline expiry is always a prefix, and the expiry check stops
	// at the first live entry instead of scanning every held guest.
	held []congEntry

	// relieves counts releases when congestionTick decides them; the
	// congest.release record follows after the stagger, so at any
	// instant the kind's count may still trail the decisions taken.
	relieves uint64
}

func newCongestController(m *Manager) *congestController {
	cc := &congestController{
		m:   m,
		cfg: &m.cfg,
		mon: m.h.Monitor(),
	}
	cc.relief = cadence{k: m.k, period: congestionCheckInterval, tick: func() bool {
		cc.congestionTick()
		return len(cc.held) > 0
	}}
	return cc
}

// detach forgets all congestion state about drv's guest, reporting
// whether one of its disks was held.
func (cc *congestController) detach(drv *Driver) (wasHeld bool) {
	cc.noteReleaseAck(drv)
	n := len(cc.held)
	cc.held = slices.DeleteFunc(cc.held, func(e congEntry) bool {
		if e.dd.drv != drv {
			return false
		}
		e.dd.held = false
		return true
	})
	return len(cc.held) < n
}

// fellBack stops expecting acks from a guest we no longer trust, and
// publishes one last best-effort release if the guest was held: a
// live-but-slow driver will act on it; a dead one leaves its queues to
// the local controller. Nothing may stay parked behind a dead protocol.
func (cc *congestController) fellBack(drv *Driver) {
	if cc.detach(drv) {
		cc.m.st.WriteBoolCursor(store.Dom0, &drv.release, true)
	}
}

// handleCongestQuery answers a guest's congestion query: confirm when the
// host device is genuinely overcrowded, otherwise release the guest.
func (cc *congestController) handleCongestQuery(dd *diskDriver) {
	m := cc.m
	if !m.live.cooperative(dd.drv) {
		// No verdict for a fallback guest: its kernel's local avoidance
		// (engage at 7/8, release below 13/16) is exactly Baseline.
		return
	}
	// Reset the query flag so subsequent queries re-fire the watch.
	m.st.WriteBoolCursor(store.Dom0, &dd.keys[diskCongestQuery], false)
	if cc.mon.IOCongested() {
		cc.recordCongestion(trace.KindCongestConfirm, dd)
		m.st.WriteBoolCursor(store.Dom0, &dd.keys[diskCongested], true)
		if dd.held {
			return
		}
		dd.held = true
		cc.held = append(cc.held, congEntry{dd: dd, since: m.k.Now()})
		cc.relief.arm()
		return
	}
	cc.requestRelease(dd, trace.KindCongestVeto)
}

// requestRelease records the verdict, publishes release_request=1 and
// arms the bounded ack-retry machinery: a lost notification must not
// leave the guest's producers parked forever.
func (cc *congestController) requestRelease(dd *diskDriver, kind trace.Kind) {
	cc.recordCongestion(kind, dd)
	cc.m.st.WriteBoolCursor(store.Dom0, &dd.drv.release, true)
	cc.armReleaseRetry(dd)
}

func (cc *congestController) armReleaseRetry(dd *diskDriver) {
	drv := dd.drv
	if drv.pendingRel != nil {
		return
	}
	rs := &releaseState{disk: dd.name}
	drv.pendingRel = rs
	rs.timer = cc.m.k.After(releaseAckTimeout, func() { cc.releaseRetryTick(drv, rs) })
}

func (cc *congestController) releaseRetryTick(drv *Driver, rs *releaseState) {
	m := cc.m
	if drv.pendingRel != rs {
		return
	}
	// The guest resets release_request to 0 when it acts; a still-set key
	// means the order (or its notification) was lost.
	if v, _ := m.st.ReadBoolCursor(store.Dom0, &drv.release); !v {
		drv.pendingRel = nil
		return
	}
	if rs.retries >= releaseMaxRetries {
		drv.pendingRel = nil
		m.rec.Record(trace.Record{
			Kind: trace.KindReleaseTimeout, Dom: int(drv.id), Disk: rs.disk,
			Value: strconv.Itoa(rs.retries),
		})
		m.live.enterFallback(drv, "release-deadline")
		return
	}
	rs.retries++
	m.rec.Record(trace.Record{
		Kind: trace.KindReleaseRetry, Dom: int(drv.id), Disk: rs.disk,
		Value: strconv.Itoa(rs.retries),
	})
	// Re-publish: the write re-fires the guest's watch even though the
	// value does not change.
	m.st.WriteBoolCursor(store.Dom0, &drv.release, true)
	rs.timer = m.k.After(releaseAckTimeout, func() { cc.releaseRetryTick(drv, rs) })
}

func (cc *congestController) noteReleaseAck(drv *Driver) {
	if rs := drv.pendingRel; rs != nil {
		cc.m.k.Cancel(rs.timer)
		drv.pendingRel = nil
	}
}

// recordCongestion traces an Algorithm 2 verdict with the host queue
// depths that justified it.
func (cc *congestController) recordCongestion(kind trace.Kind, dd *diskDriver) {
	cc.m.rec.Record(trace.Record{
		Kind: kind, Dom: int(dd.drv.id), Disk: dd.name,
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
			dd := cc.held[cut].dd
			cut++
			dd.held = false
			cc.requestRelease(dd, trace.KindHoldTimeout)
		}
		cc.held = slices.Delete(cc.held, 0, cut)
		return
	}
	var offset sim.Duration
	for _, e := range cc.held {
		dd := e.dd
		dd.held = false
		cc.relieves++
		m.k.After(offset, func() {
			if m.drivers[dd.drv.id] != dd.drv {
				return // detached during the stagger
			}
			cc.requestRelease(dd, trace.KindCongestRelease)
		})
		offset += sim.Duration(m.rng.Int63n(int64(cc.cfg.ReleaseStaggerMax)))
	}
	cc.held = slices.Delete(cc.held, 0, len(cc.held))
}
