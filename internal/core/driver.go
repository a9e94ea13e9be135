package core

import (
	"strconv"
	"strings"

	"iorchestra/internal/blkio"
	"iorchestra/internal/bus"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
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
	dom *bus.Domain
	rng *stats.Stream
	rec *trace.Recorder // host's decision-trace recorder (may be nil)

	disks map[string]*diskDriver

	// Liveness machinery and fault-injection state.
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

type diskDriver struct {
	drv  *Driver
	name string
	v    *guest.VDisk

	// Relative store keys, formatted once: the dirty mirror and the
	// congestion handshake hit them on every state change, and the
	// per-call concatenations dominated the driver in profiles at scale.
	kHasDirty     string
	kNrDirty      string
	kFlushNow     string
	kCongestQuery string
	kCongested    string

	lastQuery     sim.Time
	everQueried   bool
	releasedUntil sim.Time
	nrTimer       *sim.Event
	pendingNr     int64
	havePending   bool
}

// NewDriver installs the IOrchestra driver into a guest on host h. It
// must run after the guest's disks are attached: each disk's congestion
// controller is replaced with the collaborative one, dirty-page state is
// mirrored to the store, and all watches are registered.
func NewDriver(h *hypervisor.Host, rt *hypervisor.GuestRuntime, rng *stats.Stream) *Driver {
	drv := &Driver{
		k:     h.Kernel(),
		g:     rt.G,
		dom:   rt.Dom,
		rng:   rng,
		rec:   h.Recorder(),
		disks: map[string]*diskDriver{},
	}
	// Register per-domain keys (guest-owned so both sides can write —
	// nodes created by Dom0 under a guest's subtree would be unreadable
	// to the guest).
	drv.dom.WriteBool(keyReleaseRequest, false)
	drv.dom.WriteInt(keyTotalWeight, 0)
	drv.dom.WriteInt(keyHeartbeat, 0)
	drv.dom.WriteBool(keyFallback, false)
	for _, s := range rt.G.Sockets() {
		drv.dom.WriteFloat(socketKey(keyTargetPrefix, s), -1)
		drv.dom.WriteFloat(socketKey(keySharePrefix, s), -1)
	}
	for _, v := range rt.G.Disks() {
		drv.addDisk(v)
	}
	drv.PublishWeights()
	// One watch over the domain subtree dispatches every notification.
	drv.watchID, _ = drv.dom.Watch("", drv.onStoreEvent)
	// Announce the driver and start heartbeating: the registration write
	// doubles as the first proof of life.
	drv.dom.WriteBool(keyDriverPresent, true)
	drv.startHeartbeat()
	return drv
}

func (drv *Driver) addDisk(v *guest.VDisk) {
	dd := &diskDriver{
		drv: drv, name: v.Name(), v: v,
		kHasDirty:     diskKey(v.Name(), keyHasDirty),
		kNrDirty:      diskKey(v.Name(), keyNrDirty),
		kFlushNow:     diskKey(v.Name(), keyFlushNow),
		kCongestQuery: diskKey(v.Name(), keyCongestQuery),
		kCongested:    diskKey(v.Name(), keyCongested),
	}
	drv.disks[v.Name()] = dd
	// Pre-create guest-owned keys.
	drv.dom.WriteBool(dd.kHasDirty, false)
	drv.dom.WriteInt(dd.kNrDirty, 0)
	drv.dom.WriteBool(dd.kFlushNow, false)
	drv.dom.WriteBool(dd.kCongestQuery, false)
	drv.dom.WriteBool(dd.kCongested, false)
	// Mirror dirty-page state (Algorithm 1's guest half).
	v.Cache.OnDirtyChange = dd.onDirtyChange
	// Collaborative congestion control (Algorithm 2's guest half).
	v.Queue.SetController(dd)
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
		drv.dom.WriteInt(keyHeartbeat, drv.hbCount)
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
	for _, dd := range drv.disks {
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
	for _, name := range sortedNames(drv.disks) {
		dd := drv.disks[name]
		dd.v.Cache.OnDirtyChange = dd.onDirtyChange
		dd.v.Queue.SetController(dd)
		nr := dd.v.Cache.DirtyPages()
		drv.dom.WriteBool(dd.kHasDirty, nr > 0)
		drv.dom.WriteInt(dd.kNrDirty, nr)
		drv.dom.WriteBool(dd.kFlushNow, false)
		drv.dom.WriteBool(dd.kCongestQuery, false)
	}
	drv.watchID, _ = drv.dom.Watch("", drv.onStoreEvent)
	drv.PublishWeights()
	// A release the manager published while we were dead must still be
	// honoured, or the producers it meant to wake stay parked.
	if v, _ := drv.dom.ReadBool(keyReleaseRequest); v {
		drv.handleRelease()
	}
	drv.dom.WriteBool(keyDriverPresent, true)
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
		drv.dom.WriteBool(dd.kHasDirty, false)
		drv.dom.WriteInt(dd.kNrDirty, 0)
		return
	}
	// The readback (not a cached mirror) is deliberate: under injected
	// stale writes the published has_dirty can silently diverge from what
	// we last wrote, and re-reading is what retries the lost transition.
	if v, _ := drv.dom.ReadBool(dd.kHasDirty); !v {
		drv.dom.WriteBool(dd.kHasDirty, true)
		drv.dom.WriteInt(dd.kNrDirty, nr)
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
			drv.dom.WriteInt(dd.kNrDirty, dd.pendingNr)
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
		drv.dom.WriteBool(dd.kCongestQuery, true)
	}
	return true
}

// OnUncongested implements blkio.CongestionController.
func (dd *diskDriver) OnUncongested(q *blkio.Queue) {
	dd.drv.dom.WriteBool(dd.kCongested, false)
}

// --- Store event dispatch --------------------------------------------------

func (drv *Driver) onStoreEvent(rel, value string) {
	switch {
	case strings.HasPrefix(rel, "virt-dev/"):
		rest := rel[len("virt-dev/"):]
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return
		}
		disk, key := rest[:i], rest[i+1:]
		dd := drv.disks[disk]
		if dd == nil {
			return
		}
		switch key {
		case keyFlushNow:
			if value == "1" {
				dd.handleFlushNow()
			}
		case keyCongested:
			// Host verdict recorded; nothing further to do here — the
			// queue stays in avoidance until release or local drain.
		}
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
	drv.dom.WriteBool(dd.kFlushNow, false)
}

// handleRelease is Algorithm 2's release branch: unplug and flush every
// disk's request queue, clear congested flags, reset release_request.
func (drv *Driver) handleRelease() {
	until := drv.k.Now() + releaseGrace
	for _, name := range sortedNames(drv.disks) {
		dd := drv.disks[name]
		dd.releasedUntil = until
		dd.v.Queue.Release(nil)
		drv.dom.WriteBool(dd.kCongested, false)
	}
	drv.dom.WriteBool(keyReleaseRequest, false)
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
	for _, name := range sortedNames(drv.disks) {
		drv.disks[name].v.Queue.SetCongestScale(w)
	}
}

// --- Co-scheduling (Sec. 3.3, guest side) ----------------------------------

// PublishWeights writes the per-socket process weights W_SKT and the total
// process weight to the store for the management module.
func (drv *Driver) PublishWeights() {
	weights := drv.g.ProcessWeightBySocket()
	for _, s := range drv.g.Sockets() {
		drv.dom.WriteFloat(socketKey(keyWeightPrefix, s), weights[s])
	}
	drv.dom.WriteFloat(keyTotalWeight, drv.g.TotalProcessWeight())
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
	for _, s := range sockets {
		f, err := drv.dom.ReadFloat(socketKey(keyTargetPrefix, s), -1)
		if err != nil || f < 0 {
			return // incomplete target set; wait for the next update
		}
		targets[s] = f
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

// String identifies the driver.
func (drv *Driver) String() string {
	return "iorchestra-driver(dom" + strconv.Itoa(int(drv.g.ID())) + ")"
}
