package core

import (
	"strconv"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// flushController is Algorithm 1, the policy for flushing dirty pages:
// when the device has low utilization, tell the guest with the most
// dirty pages to flush. Each disk's dirty mirror lives on its diskDriver
// and is fed to the hypervisor Monitor; this controller only decides
// and actuates through the store. Its other per-disk state (bounded-retry
// debt, withdrawals in flight) lives on the diskDriver too.
type flushController struct {
	m   *Manager
	cfg *ManagerConfig
	mon *hypervisor.Monitor

	check cadence

	// outstanding is the disk the last order went to, nil once the guest
	// answered or the order was abandoned.
	outstanding      *diskDriver
	outstandingSince sim.Time
	lastNotice       sim.Time
}

func newFlushController(m *Manager) *flushController {
	fc := &flushController{
		m:   m,
		cfg: &m.cfg,
		mon: m.h.Monitor(),
		// No order yet: the first one owes no cooldown.
		lastNotice: -m.cfg.FlushCooldown,
	}
	fc.check = cadence{k: m.k, period: m.cfg.FlushCheckInterval, tick: func() bool {
		fc.flushTick()
		return fc.mon.AnyDirty()
	}}
	return fc
}

// detach forgets the guest's dirty mirrors and any order outstanding on
// one of its disks.
func (fc *flushController) detach(drv *Driver) {
	for i := range drv.disks {
		fc.mon.Forget(&drv.disks[i].dirty)
	}
	fc.fellBack(drv)
}

// noteDirty mirrors a guest's has_dirty_pages bit; a dirty guest is a
// flush candidate, so the idle-bandwidth check runs.
func (fc *flushController) noteDirty(dd *diskDriver, has bool) {
	fc.mon.ObserveDirty(&dd.dirty, has)
	if has {
		fc.check.arm()
	}
}

func (fc *flushController) noteFlushAck(dd *diskDriver) {
	if dd.withdrawn > 0 {
		// Our own withdrawal echoing back — not a guest ack. The
		// notification arrives a latency later, possibly after the next
		// order went out.
		dd.withdrawn--
		return
	}
	if dd == fc.outstanding {
		fc.outstanding = nil // guest answered; allow the next flush
		dd.retries = 0
	}
}

// fellBack: a demoted guest can owe us nothing — drop any outstanding
// order so the argmax is free to pick a live candidate.
func (fc *flushController) fellBack(drv *Driver) {
	if fc.outstanding != nil && fc.outstanding.drv == drv {
		fc.outstanding = nil
	}
}

// restored wipes the guest's retry debt and resumes idle checks if
// anyone still holds dirty pages.
func (fc *flushController) restored(drv *Driver) {
	for i := range drv.disks {
		drv.disks[i].retries = 0
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
	if dd := fc.outstanding; dd != nil {
		if now-fc.outstandingSince < fc.cfg.FlushTimeout {
			return
		}
		// Deadline expired: the guest never answered flush_now. Withdraw
		// the stale order, count a bounded retry against the disk, and
		// after FlushMaxRetries demote the guest so the argmax below can
		// never pick the same dead guest forever while live candidates
		// starve.
		fc.outstanding = nil
		dd.retries++
		m.rec.Record(trace.Record{
			Kind: trace.KindFlushTimeout, Dom: int(dd.drv.id), Disk: dd.name,
			Value: strconv.Itoa(dd.retries),
		})
		dd.withdrawn++
		m.st.WriteBoolCursor(store.Dom0, &dd.keys[diskFlushNow], false)
		if dd.retries > fc.cfg.FlushMaxRetries {
			dd.retries = 0
			m.live.enterFallback(dd.drv, "flush-deadline")
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
	// BestDirty scans the Monitor's dirty mirrors, which the watch events
	// above keep current; the stale sweep first demotes, in dom order,
	// every guest whose heartbeat has lapsed. Fallback guests are
	// Baseline guests — their own flusher threads own the dirty pages, so
	// BestDirty skips them (Algorithm 1's liveness gate).
	m.live.sweepStale()
	bestDom, bestDisk, bestNr, found := fc.mon.BestDirty(now, m.live.cooperativeDom)
	if !found || bestNr*4096 < fc.cfg.MinFlushBytes {
		return
	}
	// Every dirty entry is a diskDriver's, and detach forgets them, so
	// a cooperative dom's driver drives the winning disk.
	dd := m.drivers[bestDom].disk(bestDisk)
	fc.lastNotice = now
	fc.outstanding, fc.outstandingSince = dd, now
	m.rec.Record(trace.Record{
		Kind: trace.KindFlushOrder, Dom: int(bestDom), Disk: bestDisk,
		NrDirty: bestNr, DeviceBps: dev.BandwidthBps,
		UtilFrac: dev.UtilFraction,
	})
	m.st.WriteBoolCursor(store.Dom0, &dd.keys[diskFlushNow], true)
}
