package core

import (
	"slices"
	"strconv"
	"strings"

	"iorchestra/internal/blkio"
	"iorchestra/internal/bus"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Driver is the guest-side IOrchestra component ("system store driver" in
// Fig. 2): it registers the guest's keys and callbacks at initialization,
// mirrors dirty-page state into the store, implements the collaborative
// congestion controller for each virtual disk, reacts to flush_now and
// release_request notifications, and applies co-scheduling weight targets
// by migrating I/O processes between sockets.
type Driver struct {
	k   *sim.Kernel
	g   *guest.Guest
	dom *bus.Domain // the guest's bus handle: its watch, its key table's paths
	st  *store.Store
	id  store.DomID
	rec *trace.Recorder // host's decision-trace recorder (may be nil)

	// The guest's key table, registered at initialization (Fig. 2): a
	// cursor per per-domain and per-socket key here, a disk's on its
	// diskDriver, every path a slice of one string bus.Keys cut at
	// attach. The guest writes through them as itself, the manager's
	// policies as Dom0 (docs/STORE_KEYS.md); sla/state alone is the
	// manager's to create and write, the guest only watches it.
	release, totalWeight, heartbeat, fallback, present, slaState store.Cursor
	sockets                                                      []socketKeys

	// disks are in name order, the order every per-disk loop runs in.
	disks []diskDriver

	// The manager's per-guest policy state, Dom0's side of the guest: the
	// guest never reads it, and it goes with the driver at DisableGuest.
	lastBeat   sim.Time      // liveness: the last heartbeat's stamp
	fellBack   bool          // liveness: demoted to Baseline behavior
	fellBackAt sim.Time      // liveness: when, while fellBack
	pendingRel *releaseState // congestion: unacknowledged release_request
	coschedOff bool          // co-scheduling: held static (DisableCosched)
	lat        latWindow     // gstate: the last latency snapshot

	// mgrWatch is Dom0's watch on the guest's subtree, whose callback
	// holds this driver as its token (Manager.EnableGuest).
	mgrWatch store.WatchID

	// The guest's heartbeat and watch, and fault-injection state.
	watchID   store.WatchID
	hb        *sim.Ticker
	hbCount   int64
	crashed   bool
	syncFault func(disk string) bool // non-nil only under fault injection
}

const (
	// queryInterval rate-limits congestion queries per disk.
	queryInterval = 5 * sim.Millisecond
	// releaseGrace is how long a host "not congested" verdict remains
	// valid: within it, local congestion triggers are suppressed instead
	// of re-queried.
	releaseGrace = 50 * sim.Millisecond
	// nrUpdateInterval rate-limits nr_dirty store updates.
	nrUpdateInterval = 50 * sim.Millisecond
	// heartbeatInterval paces the iorchestra/heartbeat counter the
	// manager uses for liveness.
	heartbeatInterval = 100 * sim.Millisecond
)

// socketKeys are one socket's co-scheduling keys, io/<kind>/<socket>:
// the guest publishes the weight, the manager the target and the share.
type socketKeys struct {
	socket                int
	weight, target, share store.Cursor
}

// A disk's keys, indexes into diskDriver.keys in the order the driver
// creates them; diskKeyNames holds each one's name.
const (
	diskHasDirty = iota
	diskNrDirty
	diskFlushNow
	diskCongestQuery
	diskCongested
	nDiskKeys
)

var diskKeyNames = [nDiskKeys]string{keyHasDirty, keyNrDirty, keyFlushNow, keyCongestQuery, keyCongested}

type diskDriver struct {
	drv  *Driver
	name string
	v    *guest.VDisk

	// keys are the disk's virt-dev/<disk>/<key> cursors: the dirty mirror
	// and the congestion handshake hit them on every state change.
	keys [nDiskKeys]store.Cursor

	lastQuery     sim.Time
	everQueried   bool
	releasedUntil sim.Time
	nrTimer       *sim.Event
	pendingNr     int64
	havePending   bool

	// The manager's policy state about the disk (see Driver).
	dirty     hypervisor.DirtyEntry // flush: the Monitor's mirror of the disk
	retries   int                   // flush: timed-out orders since the guest last answered
	withdrawn int                   // flush: own flush_now=0 withdrawals still in flight
	held      bool                  // congestion: on the held FIFO
}

// newDriver builds the IOrchestra driver of a guest on host h, after the
// guest's disks are attached: its key table, with nothing written yet.
// start installs it.
func newDriver(h *hypervisor.Host, rt *hypervisor.GuestRuntime) *Driver {
	drv := &Driver{
		k:   h.Kernel(),
		g:   rt.G,
		dom: rt.Dom,
		st:  h.Store(),
		id:  rt.G.ID(),
		rec: h.Recorder(),
	}
	drv.registerKeys(rt.G.Disks())
	return drv
}

// start installs the driver into its guest: each disk's congestion
// controller is replaced with the collaborative one, dirty-page state is
// mirrored to the store, and the guest's watch is registered.
func (drv *Driver) start() {
	// Create per-domain keys (guest-owned so both sides can write — nodes
	// created by Dom0 under a guest's subtree would be unreadable to the
	// guest).
	drv.writeBool(&drv.release, false)
	drv.writeInt(&drv.totalWeight, 0)
	drv.writeInt(&drv.heartbeat, 0)
	drv.writeBool(&drv.fallback, false)
	for i := range drv.sockets {
		drv.writeFloat(&drv.sockets[i].target, -1)
		drv.writeFloat(&drv.sockets[i].share, -1)
	}
	for _, v := range drv.g.Disks() { // in creation order
		drv.addDisk(drv.disk(v.Name()))
	}
	drv.PublishWeights()
	// One watch over the domain subtree dispatches every notification.
	drv.watchID, _ = drv.dom.Watch("", drv.onStoreEvent)
	// Announce the driver and start heartbeating: the registration write
	// doubles as the first proof of life.
	drv.writeBool(&drv.present, true)
	drv.startHeartbeat()
}

// registerKeys builds the key table: a diskDriver per disk, a socketKeys
// per socket the guest's VCPUs span, and every cursor's path in one
// bus.Keys string. It writes nothing.
func (drv *Driver) registerKeys(disks []*guest.VDisk) {
	drv.disks = make([]diskDriver, len(disks))
	for i, v := range disks {
		drv.disks[i] = diskDriver{drv: drv, name: v.Name(), v: v, dirty: hypervisor.NewDirtyEntry(drv.id, v.Name())}
	}
	slices.SortFunc(drv.disks, func(a, b diskDriver) int { return strings.Compare(a.name, b.name) })
	sockets := drv.g.Sockets()
	drv.sockets = make([]socketKeys, len(sockets))
	for i, s := range sockets {
		drv.sockets[i].socket = s
	}
	ks := drv.dom.Keys()
	for ks.Next() {
		ks.Add(&drv.release, keyReleaseRequest)
		ks.Add(&drv.totalWeight, keyTotalWeight)
		ks.Add(&drv.heartbeat, keyHeartbeat)
		ks.Add(&drv.fallback, keyFallback)
		ks.Add(&drv.present, keyDriverPresent)
		ks.Add(&drv.slaState, keySLAState)
		for i := range drv.sockets {
			sk := &drv.sockets[i]
			ks.AddIndex(&sk.weight, keyWeightPrefix, sk.socket)
			ks.AddIndex(&sk.target, keyTargetPrefix, sk.socket)
			ks.AddIndex(&sk.share, keySharePrefix, sk.socket)
		}
		for i := range drv.disks {
			dd := &drv.disks[i]
			for k := range dd.keys {
				ks.Add(&dd.keys[k], "virt-dev/", dd.name, "/", diskKeyNames[k])
			}
		}
	}
}

// virtDev parses a key relative to the guest's home as
// virt-dev/<disk>/<key>: ok reports that it is one, dd is the disk's
// driver, nil for a disk this driver does not drive, and key is what
// follows the disk.
func (drv *Driver) virtDev(rel string) (dd *diskDriver, key string, ok bool) {
	rest, under := strings.CutPrefix(rel, "virt-dev/")
	disk, key, cut := strings.Cut(rest, "/")
	if !under || !cut {
		return nil, "", false
	}
	return drv.disk(disk), key, true
}

// disk returns the driver of the named disk, nil for a disk it does not
// drive. A guest has a disk or two: a scan beats a map.
func (drv *Driver) disk(name string) *diskDriver {
	for i := range drv.disks {
		if drv.disks[i].name == name {
			return &drv.disks[i]
		}
	}
	return nil
}

// dirtyObserved reports whether any of the guest's disks has published
// a has_dirty_pages bit the Monitor recorded.
func (drv *Driver) dirtyObserved() bool {
	for i := range drv.disks {
		if _, ok := drv.disks[i].dirty.State(); ok {
			return true
		}
	}
	return false
}

func (drv *Driver) addDisk(dd *diskDriver) {
	// Pre-create guest-owned keys.
	drv.writeBool(&dd.keys[diskHasDirty], false)
	drv.writeInt(&dd.keys[diskNrDirty], 0)
	drv.writeBool(&dd.keys[diskFlushNow], false)
	drv.writeBool(&dd.keys[diskCongestQuery], false)
	drv.writeBool(&dd.keys[diskCongested], false)
	// Mirror dirty-page state (Algorithm 1's guest half).
	dd.v.Cache.OnDirtyChange = dd.onDirtyChange
	// Collaborative congestion control (Algorithm 2's guest half).
	dd.v.Queue.SetController(dd)
}

// SetSyncFault installs a fault-injection predicate consulted on every
// flush order; a true return means the sync() sticks forever and
// flush_now is never reset (see internal/fault).
func (drv *Driver) SetSyncFault(fn func(disk string) bool) { drv.syncFault = fn }

// --- Liveness and lifecycle ------------------------------------------------

// startHeartbeat arms the periodic iorchestra/heartbeat write, the
// manager's liveness signal.
func (drv *Driver) startHeartbeat() {
	drv.hb = drv.k.Every(heartbeatInterval, func() {
		drv.hbCount++
		drv.writeInt(&drv.heartbeat, drv.hbCount)
	})
}

// detach silences the driver: heartbeat stopped, watch torn down, cache
// and queue hooks unhooked, pending nr_dirty timers cancelled.
func (drv *Driver) detach() {
	if drv.hb != nil {
		drv.hb.Stop()
		drv.hb = nil
	}
	drv.dom.Unwatch(drv.watchID)
	for i := range drv.disks {
		dd := &drv.disks[i]
		dd.v.Cache.OnDirtyChange = nil
		dd.v.Queue.SetController(nil) // back to the kernel's LocalController
		if dd.nrTimer != nil {
			drv.k.Cancel(dd.nrTimer)
			dd.nrTimer = nil
			dd.havePending = false
		}
	}
}

// Crash simulates the driver dying abruptly: everything it registered is
// torn down with no goodbye write, so its store keys go stale exactly as
// a crashed kernel module's XenStore state would. The guest itself keeps
// running on stock Linux behavior — the local congestion controller and
// the page cache's own flusher threads take over.
func (drv *Driver) Crash() {
	if drv.crashed {
		return
	}
	drv.crashed = true
	drv.detach()
}

// Restart re-registers a crashed driver, as a guest reloading the module
// would: hooks reattached, current dirty state republished, watch and
// heartbeat restored, and iorchestra/driver rewritten so the manager
// lifts the guest's fallback immediately.
func (drv *Driver) Restart() {
	if !drv.crashed {
		return
	}
	drv.crashed = false
	for i := range drv.disks {
		dd := &drv.disks[i]
		dd.v.Cache.OnDirtyChange = dd.onDirtyChange
		dd.v.Queue.SetController(dd)
		nr := dd.v.Cache.DirtyPages()
		drv.writeBool(&dd.keys[diskHasDirty], nr > 0)
		drv.writeInt(&dd.keys[diskNrDirty], nr)
		drv.writeBool(&dd.keys[diskFlushNow], false)
		drv.writeBool(&dd.keys[diskCongestQuery], false)
	}
	drv.watchID, _ = drv.dom.Watch("", drv.onStoreEvent)
	drv.PublishWeights()
	// A release the manager published while we were dead must still be
	// honoured, or the producers it meant to wake stay parked.
	if drv.readBool(&drv.release) {
		drv.handleRelease()
	}
	drv.writeBool(&drv.present, true)
	drv.startHeartbeat()
}

// Close shuts the driver down for guest removal: like Crash it detaches
// everything, but it is deliberate, so no restart is expected. Managers
// call it through DisableGuest.
func (drv *Driver) Close() {
	if !drv.crashed {
		drv.detach()
		drv.crashed = true
	}
}

// --- Dirty-page mirroring (Algorithm 1, guest side) -----------------------

func (dd *diskDriver) onDirtyChange(nr int64) {
	drv := dd.drv
	if nr == 0 {
		// Transition to clean is always published immediately.
		if dd.nrTimer != nil {
			drv.k.Cancel(dd.nrTimer)
			dd.nrTimer = nil
			dd.havePending = false
		}
		drv.writeBool(&dd.keys[diskHasDirty], false)
		drv.writeInt(&dd.keys[diskNrDirty], 0)
		return
	}
	// The readback (not a cached mirror) is deliberate: under injected
	// stale writes the published has_dirty can silently diverge from what
	// we last wrote, and re-reading is what retries the lost transition.
	if !drv.readBool(&dd.keys[diskHasDirty]) {
		drv.writeBool(&dd.keys[diskHasDirty], true)
		drv.writeInt(&dd.keys[diskNrDirty], nr)
		return
	}
	// Rate-limit nr updates: remember the latest and flush on a timer.
	dd.pendingNr = nr
	if dd.havePending {
		return
	}
	dd.havePending = true
	dd.nrTimer = drv.k.After(nrUpdateInterval, func() {
		dd.nrTimer = nil
		dd.havePending = false
		if dd.pendingNr > 0 {
			drv.writeInt(&dd.keys[diskNrDirty], dd.pendingNr)
		}
	})
}

// --- Collaborative congestion control (Algorithm 2, guest side) -----------

// OnCongested implements blkio.CongestionController: engage avoidance
// locally (conservative) and ask the host whether its I/O subsystem is
// actually congested.
func (dd *diskDriver) OnCongested(q *blkio.Queue) bool {
	drv := dd.drv
	now := drv.k.Now()
	if now < dd.releasedUntil {
		// The host recently ruled the I/O subsystem uncongested; trust
		// that verdict instead of re-engaging avoidance immediately.
		return false
	}
	if !dd.everQueried || now-dd.lastQuery >= queryInterval {
		dd.everQueried = true
		dd.lastQuery = now
		drv.writeBool(&dd.keys[diskCongestQuery], true)
	}
	return true
}

// OnUncongested implements blkio.CongestionController.
func (dd *diskDriver) OnUncongested(q *blkio.Queue) {
	dd.drv.writeBool(&dd.keys[diskCongested], false)
}

// --- Store event dispatch --------------------------------------------------

func (drv *Driver) onStoreEvent(rel, value string) {
	if dd, key, ok := drv.virtDev(rel); ok {
		// Of a disk's keys only flush_now asks for work. The host's
		// congested verdict needs none: the queue stays in avoidance
		// until release or local drain.
		if dd != nil && key == keyFlushNow && value == "1" {
			dd.handleFlushNow()
		}
		return
	}
	switch {
	case rel == keyReleaseRequest:
		if value == "1" {
			drv.handleRelease()
		}
	case rel == keySLAState:
		drv.applyGState(value)
	case strings.HasPrefix(rel, keyTargetPrefix+"/"):
		drv.applyTargets()
	}
}

// handleFlushNow is Algorithm 1's notified branch: trigger sync(), which
// wakes the flusher threads, then reset flush_now.
func (dd *diskDriver) handleFlushNow() {
	drv := dd.drv
	if drv.syncFault != nil && drv.syncFault(dd.name) {
		// Injected stuck sync: the order arrived but the guest's sync()
		// never completes, so flush_now stays set — the manager's flush
		// deadline is the only recovery path.
		return
	}
	if drv.rec != nil {
		drv.rec.Record(trace.Record{
			Kind: trace.KindFlushSync, Dom: int(drv.g.ID()), Disk: dd.name,
			NrDirty: dd.v.Cache.DirtyPages(),
		})
	}
	dd.v.Cache.Sync(nil)
	drv.writeBool(&dd.keys[diskFlushNow], false)
}

// handleRelease is Algorithm 2's release branch: unplug and flush every
// disk's request queue, clear congested flags, reset release_request.
func (drv *Driver) handleRelease() {
	until := drv.k.Now() + releaseGrace
	for i := range drv.disks {
		dd := &drv.disks[i]
		dd.releasedUntil = until
		dd.v.Queue.Release(nil)
		drv.writeBool(&dd.keys[diskCongested], false)
	}
	drv.writeBool(&drv.release, false)
}

// --- Elastic G-states (docs/GSTATES.md, guest side) ------------------------

// applyGState is the collaborative half of a G-state transition: the
// manager published a new state index under sla/state, and the guest
// answers by scaling every disk queue's congestion thresholds by the
// state's weight — a demoted guest engages avoidance at a
// proportionally smaller backlog, backpressuring its own producers
// before its shrunken device share backs the host queue up.
func (drv *Driver) applyGState(value string) {
	n, err := strconv.Atoi(value)
	if err != nil || n < 0 {
		return
	}
	w := gstate.State(n).Weight()
	for i := range drv.disks {
		drv.disks[i].v.Queue.SetCongestScale(w)
	}
}

// --- Co-scheduling (Sec. 3.3, guest side) ----------------------------------

// PublishWeights writes the per-socket process weights W_SKT and the total
// process weight to the store for the management module.
func (drv *Driver) PublishWeights() {
	weights := drv.g.ProcessWeightBySocket()
	for i := range drv.sockets {
		sk := &drv.sockets[i]
		drv.writeFloat(&sk.weight, weights[sk.socket])
	}
	drv.writeFloat(&drv.totalWeight, drv.g.TotalProcessWeight())
}

// applyTargets reads the management module's per-socket weight fractions
// and redistributes I/O processes (and their weights) across sockets to
// match — the "registered callback function inside a guest VM" of
// Sec. 3.3.
func (drv *Driver) applyTargets() {
	sockets := drv.g.Sockets()
	if len(sockets) < 2 {
		return
	}
	targets := make(map[int]float64, len(sockets))
	var sum float64
	for i := range drv.sockets {
		sk := &drv.sockets[i]
		f, err := drv.st.ReadFloatCursor(drv.id, &sk.target, -1)
		if err != nil || f < 0 {
			return // incomplete target set; wait for the next update
		}
		targets[sk.socket] = f
		sum += f
	}
	if sum <= 0 {
		return
	}
	// Greedy redistribution: walk the I/O processes in id order and fill
	// sockets to their target share of the total weight.
	total := drv.g.TotalProcessWeight()
	if total <= 0 {
		return
	}
	type bucket struct {
		socket int
		want   float64
		have   float64
		vcpus  []int
		next   int
	}
	buckets := make([]*bucket, 0, len(sockets))
	for _, s := range sockets {
		vcpus := drv.g.VCPUsOnSocket(s)
		if len(vcpus) == 0 {
			continue
		}
		buckets = append(buckets, &bucket{socket: s, want: targets[s] / sum * total, vcpus: vcpus})
	}
	if len(buckets) < 2 {
		return
	}
	// Plan the proportional assignment, then apply it conservatively:
	// at most one actual migration per update, preferring the process
	// already farthest from its planned socket. Migration costs (cache
	// warmth, CPU co-location) are real, so the distribution converges
	// over a few update periods instead of thrashing.
	var migrate *guest.Process
	var migrateTo int
	for _, p := range drv.g.Processes() {
		if p.IOWeight <= 0 {
			continue
		}
		var best *bucket
		for _, b := range buckets {
			if best == nil || b.want-b.have > best.want-best.have {
				best = b
			}
		}
		best.have += p.IOWeight
		target := best.vcpus[best.next%len(best.vcpus)]
		best.next++
		if p.Socket() != best.socket && migrate == nil {
			migrate = p
			migrateTo = target
		}
	}
	if migrate != nil {
		migrate.MoveTo(migrateTo)
		if drv.rec != nil {
			drv.rec.Record(trace.Record{
				Kind: trace.KindCoschedMove, Dom: int(drv.g.ID()),
				Socket: drv.g.VCPU(migrateTo).Socket, Weight: migrate.IOWeight,
			})
		}
		drv.PublishWeights()
	}
}

// The guest's own store operations, as itself, through its key table's
// cursors. A failed write is dropped, as it always was here: the guest
// has nobody to report it to, and the manager's deadlines cover a lost
// key.

func (drv *Driver) writeBool(c *store.Cursor, v bool)     { drv.st.WriteBoolCursor(drv.id, c, v) }
func (drv *Driver) writeInt(c *store.Cursor, v int64)     { drv.st.WriteIntCursor(drv.id, c, v) }
func (drv *Driver) writeFloat(c *store.Cursor, v float64) { drv.st.WriteFloatCursor(drv.id, c, v) }

// readBool reads a boolean key; absent or unreadable reads false.
func (drv *Driver) readBool(c *store.Cursor) bool {
	v, _ := drv.st.ReadBoolCursor(drv.id, c)
	return v
}

// String identifies the driver.
func (drv *Driver) String() string {
	return "iorchestra-driver(dom" + strconv.Itoa(int(drv.g.ID())) + ")"
}
