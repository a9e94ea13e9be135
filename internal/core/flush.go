package core

import (
	"strconv"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// retryKey indexes bounded-retry state per (guest, disk).
type retryKey struct {
	dom  store.DomID
	disk string
}

// flushController is Algorithm 1, the policy for flushing dirty pages:
// when the device has low utilization, tell the guest with the most
// dirty pages to flush. Guest dirty mirrors live in the hypervisor
// Monitor; this controller only decides and actuates through the store.
type flushController struct {
	m   *Manager
	cfg *ManagerConfig
	mon *hypervisor.Monitor

	check cadence

	outstandingDom   store.DomID
	outstandingDisk  string
	outstandingSince sim.Time
	lastNotice       sim.Time

	retries map[retryKey]int
	// withdrawn counts the manager's own flush_now=0 withdrawal writes
	// whose watch notifications are still in flight: they must not be
	// mistaken for guest acks (the notification arrives a latency later,
	// possibly after the next order went out).
	withdrawn map[retryKey]int
}

func newFlushController(m *Manager) *flushController {
	fc := &flushController{
		m:   m,
		cfg: &m.cfg,
		mon: m.h.Monitor(),
		// No order yet: the first one owes no cooldown.
		lastNotice: -m.cfg.FlushCooldown,
		retries:    map[retryKey]int{},
		withdrawn:  map[retryKey]int{},
	}
	// Algorithm 1's mid-burst guard, taken literally: a guest whose dirty
	// count grew within the last 200 ms is still writing — leave it alone.
	fc.mon.SetDirtySettleWindow(200 * sim.Millisecond)
	fc.check = cadence{k: m.k, period: m.cfg.FlushCheckInterval, tick: func() bool {
		fc.flushTick()
		return fc.mon.AnyDirty()
	}}
	return fc
}

// detach forgets all flush state about dom.
func (fc *flushController) detach(dom store.DomID) {
	fc.mon.ForgetGuest(dom)
	if fc.outstandingDom == dom {
		fc.outstandingDom = 0
	}
	for rk := range fc.retries {
		if rk.dom == dom {
			delete(fc.retries, rk)
		}
	}
	for rk := range fc.withdrawn {
		if rk.dom == dom {
			delete(fc.withdrawn, rk)
		}
	}
}

// noteDirty mirrors a guest's has_dirty_pages bit; a dirty guest is a
// flush candidate, so the idle-bandwidth check runs.
func (fc *flushController) noteDirty(dom store.DomID, disk string, has bool) {
	fc.mon.ObserveDirty(dom, disk, has)
	if has {
		fc.check.arm()
	}
}

func (fc *flushController) noteFlushAck(dom store.DomID, disk string) {
	rk := retryKey{dom: dom, disk: disk}
	if fc.withdrawn[rk] > 0 {
		// Our own withdrawal echoing back — not a guest ack.
		if fc.withdrawn[rk]--; fc.withdrawn[rk] == 0 {
			delete(fc.withdrawn, rk)
		}
		return
	}
	if dom == fc.outstandingDom && disk == fc.outstandingDisk {
		fc.outstandingDom = 0 // guest answered; allow the next flush
		delete(fc.retries, rk)
	}
}

// fellBack: a demoted guest can owe us nothing — drop any outstanding
// order so the argmax is free to pick a live candidate.
func (fc *flushController) fellBack(dom store.DomID) {
	if fc.outstandingDom == dom {
		fc.outstandingDom = 0
	}
}

// restored wipes the guest's retry debt and resumes idle checks if
// anyone still holds dirty pages.
func (fc *flushController) restored(dom store.DomID) {
	for rk := range fc.retries {
		if rk.dom == dom {
			delete(fc.retries, rk)
		}
	}
	if fc.mon.AnyDirty() {
		fc.check.arm()
	}
}

// flushTick is Algorithm 1's management branch: when the device has low
// utilization, tell the guest with the most dirty pages to flush.
func (fc *flushController) flushTick() {
	m := fc.m
	now := m.k.Now()
	if fc.outstandingDom != 0 {
		if now-fc.outstandingSince < fc.cfg.FlushTimeout {
			return
		}
		// Deadline expired: the guest never answered flush_now. Withdraw
		// the stale order, count a bounded retry against the pair, and
		// after FlushMaxRetries demote the guest so the argmax below can
		// never pick the same dead guest forever while live candidates
		// starve.
		dom, disk := fc.outstandingDom, fc.outstandingDisk
		fc.outstandingDom = 0
		rk := retryKey{dom: dom, disk: disk}
		fc.retries[rk]++
		m.rec.Record(trace.Record{
			Kind: trace.KindFlushTimeout, Dom: int(dom), Disk: disk,
			Value: strconv.Itoa(fc.retries[rk]),
		})
		fc.withdrawn[rk]++
		m.st.WriteBoolCursor(store.Dom0, m.diskKey(dom, disk, diskFlushNow), false)
		if fc.retries[rk] > fc.cfg.FlushMaxRetries {
			delete(fc.retries, rk)
			m.live.enterFallback(dom, "flush-deadline")
		}
	}
	// Algorithm 1's trigger, taken literally: act only when the device
	// moves less than one tenth of its capacity. A busy device means some
	// VM is in a latency-sensitive phase — flushing now would hurt it.
	dev := fc.mon.DeviceSnapshot(now)
	if dev.BandwidthBps >= fc.cfg.FlushUtilFrac*dev.CapacityBps {
		return
	}
	if now-fc.lastNotice < fc.cfg.FlushCooldown {
		return
	}
	// i = argmax_i nr_i over guests with dirty pages, skipping guests
	// whose dirty set is still growing — they are mid-write-burst, and a
	// sync() now would stall exactly the VM the policy is protecting.
	// The Monitor keeps the candidates indexed (settled max-heap fed by
	// the watch events above), so the decision is O(1); the stale sweep
	// first replicates the lazy demotions the old every-dirty-dom scan
	// performed through its per-dom cooperative() calls. Fallback guests
	// are Baseline guests — their own flusher threads own the dirty
	// pages, so BestDirty skips them (Algorithm 1's liveness gate).
	m.live.sweepStale(fc.mon.Observed)
	bestDom, bestDisk, bestNr, found := fc.mon.BestDirty(now, m.live.cooperative)
	if !found || bestNr*4096 < fc.cfg.MinFlushBytes {
		return
	}
	fc.lastNotice = now
	fc.outstandingDom, fc.outstandingDisk, fc.outstandingSince = bestDom, bestDisk, now
	m.rec.Record(trace.Record{
		Kind: trace.KindFlushOrder, Dom: int(bestDom), Disk: bestDisk,
		NrDirty: bestNr, DeviceBps: dev.BandwidthBps,
		UtilFrac: dev.UtilFraction,
	})
	m.st.WriteBoolCursor(store.Dom0, m.diskKey(bestDom, bestDisk, diskFlushNow), true)
}
