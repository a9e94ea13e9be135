// Package baselines implements the two comparison systems the paper
// emulates (Sec. 5): SDC — static dedicated I/O cores with equal shares
// and a same-socket assumption (Har'El et al. / SplitX style) — and DIF —
// disk-idleness-based flushing (Elango et al.), which passes physical disk
// idleness into every VM so guest flushers can pick a good moment, but
// with no cross-VM arbitration.
package baselines

import (
	"sort"
	"strconv"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// DIF coordinates disk-idleness-based flushing: the host publishes an
// idleness signal to all guests; every guest with dirty pages reacts by
// flushing. Unlike IOrchestra's Algorithm 1 there is no argmax selection —
// all dirty VMs flush at once, which recreates the thundering-herd
// behaviour IOrchestra avoids.
type DIF struct {
	h   *hypervisor.Host
	k   *sim.Kernel
	mon *hypervisor.Monitor

	// IdleFrac: the disk counts as idle below this bandwidth fraction.
	IdleFrac float64
	// CheckInterval paces idleness sampling while dirty pages exist.
	CheckInterval sim.Duration

	guests map[store.DomID]*difGuest
	timer  *sim.Event
}

type difGuest struct {
	dif   *DIF
	dom   store.DomID
	disks []*guest.VDisk
	dirty int64
}

// NewDIF attaches the DIF coordinator to a host.
func NewDIF(h *hypervisor.Host) *DIF {
	return &DIF{
		h:             h,
		k:             h.Kernel(),
		mon:           h.Monitor(),
		IdleFrac:      0.1,
		CheckInterval: 50 * sim.Millisecond,
		guests:        map[store.DomID]*difGuest{},
	}
}

// Attach is the core.Controller lifecycle entry (see EnableGuest).
func (d *DIF) Attach(rt *hypervisor.GuestRuntime) { d.EnableGuest(rt) }

// Detach forgets a removed guest: its dirty tracking stops feeding the
// idleness timer and a late disk_idle watch fire is ignored. Safe for
// guests that were never attached.
func (d *DIF) Detach(dom store.DomID) {
	dg := d.guests[dom]
	if dg == nil {
		return
	}
	delete(d.guests, dom)
	for _, v := range dg.disks {
		v.Cache.OnDirtyChange = nil
	}
}

// EnableGuest installs the DIF guest hook: dirty-page tracking plus a
// watch on the idleness signal.
func (d *DIF) EnableGuest(rt *hypervisor.GuestRuntime) {
	dg := &difGuest{dif: d, dom: rt.G.ID(), disks: rt.G.Disks()}
	d.guests[dg.dom] = dg
	for _, v := range dg.disks {
		v := v
		v.Cache.OnDirtyChange = func(nr int64) {
			dg.noteDirty(v, nr)
		}
	}
	rt.Dom.WriteBool("disk_idle", false)
	rt.Dom.Watch("disk_idle", func(rel, value string) {
		if value == "1" {
			dg.onIdle()
		}
	})
}

func (dg *difGuest) noteDirty(v *guest.VDisk, nr int64) {
	var total int64
	for _, d := range dg.disks {
		total += d.Cache.DirtyPages()
	}
	dg.dirty = total
	if total > 0 {
		dg.dif.arm()
	}
}

func (dg *difGuest) onIdle() {
	if dg.dif.guests[dg.dom] != dg {
		return // detached; a late idleness notification
	}
	// Every disk with dirty pages flushes — no cross-VM coordination.
	for _, v := range dg.disks {
		if v.Cache.DirtyPages() > 0 {
			v.Cache.FlushNow()
		}
	}
	dg.dif.h.Store().WriteBool(store.Dom0, store.DomainPath(dg.dom)+"/disk_idle", false)
}

func (d *DIF) anyDirty() bool {
	for _, dg := range d.guests {
		if dg.dirty > 0 {
			return true
		}
	}
	return false
}

func (d *DIF) arm() {
	if d.timer != nil {
		return
	}
	d.timer = d.k.After(d.CheckInterval, func() {
		d.timer = nil
		d.tick()
		if d.anyDirty() {
			d.arm()
		}
	})
}

// tick publishes idleness to every guest when the device is quiet. Like
// IOrchestra's own policies, DIF reads the device through the monitoring
// module's snapshot rather than touching the device directly.
func (d *DIF) tick() {
	dev := d.mon.DeviceSnapshot(d.k.Now())
	if dev.BandwidthBps >= d.IdleFrac*dev.CapacityBps {
		return
	}
	// Ascending-domain order keeps the signal writes (and the decision
	// trace behind them) identical on every fixed-seed run.
	doms := make([]store.DomID, 0, len(d.guests))
	for dom := range d.guests {
		doms = append(doms, dom)
	}
	sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
	for _, dom := range doms {
		if d.guests[dom].dirty > 0 {
			d.h.Store().WriteBool(store.Dom0, store.DomainPath(dom)+"/disk_idle", true)
		}
	}
}

// String identifies the coordinator.
func (d *DIF) String() string { return "dif(" + strconv.Itoa(len(d.guests)) + " guests)" }
