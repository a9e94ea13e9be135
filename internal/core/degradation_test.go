package core

// Graceful-degradation invariants (docs/FAULTS.md): a guest that stops
// cooperating — stuck sync, crashed driver, lost release notifications —
// must be demoted to Baseline behavior after a bounded number of
// deadline-limited attempts, siblings must keep full collaboration, and
// recovery (driver re-registration or resumed heartbeats after the
// penalty) must restore the guest. These run under -race in CI.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"iorchestra/internal/blkio"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// inFallback reports whether liveness has dom's guest demoted to
// Baseline behavior.
func inFallback(m *Manager, dom store.DomID) bool {
	drv := m.drivers[dom]
	return drv != nil && drv.fellBack
}

func mkPlatformCfg(t *testing.T, pol Policies, cfg ManagerConfig, seed uint64) (*sim.Kernel, *hypervisor.Host, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	rng := stats.NewStream(seed, "platform")
	h := hypervisor.New(k, hypervisor.Config{Trace: true}, rng.Fork("host"))
	return k, h, NewManager(h, pol, cfg, rng.Fork("mgr"))
}

func flushyGuest(h *hypervisor.Host) *hypervisor.GuestRuntime {
	return h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
		guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
			// The guest's own flusher is effectively off: only IOrchestra
			// (or nothing) drains these caches within the test horizon.
			WakeInterval: 60 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
		}})
}

// A guest whose sync() never completes must burn its bounded flush
// retries, fall back, and stop shadowing its sibling in the argmax — and
// once its syncs work again, resumed heartbeats must restore it after the
// penalty and let the manager drain it.
func TestStuckSyncGuestSkippedAndSiblingFlushed(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Flush: true}, ManagerConfig{
		FlushCheckInterval: 20 * sim.Millisecond,
		FlushTimeout:       100 * sim.Millisecond,
		FlushCooldown:      50 * sim.Millisecond,
		FlushMaxRetries:    2,
		FallbackPenalty:    500 * sim.Millisecond,
	}, 11)
	rt1, rt2 := flushyGuest(h), flushyGuest(h)
	d1 := m.EnableGuest(rt1)
	m.EnableGuest(rt2)
	syncs := perDom(h, trace.KindFlushSync)
	stuck := 0
	d1.SetSyncFault(func(string) bool { stuck++; return true })
	p1, p2 := rt1.G.NewProcess(1), rt2.G.NewProcess(1)
	k.At(sim.Millisecond, func() {
		rt1.G.Disk("xvda").Write(p1, 64<<20, nil) // argmax: the stuck guest
		rt2.G.Disk("xvda").Write(p2, 32<<20, nil)
	})
	k.RunUntil(2 * sim.Second)
	if stuck == 0 {
		t.Fatal("sync fault never exercised")
	}
	if got := m.Counters().FlushTimeouts; got < 3 {
		t.Fatalf("flush timeouts = %d, want >= FlushMaxRetries+1", got)
	}
	if m.Counters().Fallbacks == 0 {
		t.Fatal("stuck guest never fell back")
	}
	// The loop proceeded: the sibling was flushed despite the stuck argmax
	// winner, and its cache drained.
	if syncs[rt2.G.ID()] == 0 {
		t.Fatal("sibling never flushed — one bad guest stalled Algorithm 1")
	}
	if rt2.G.Disk("xvda").Cache.DirtyPages() != 0 {
		t.Fatal("sibling cache not drained")
	}
	// Recovery: syncs work again, heartbeats were never interrupted, so
	// after the penalty the guest is restored and finally drained.
	d1.SetSyncFault(nil)
	k.RunUntil(8 * sim.Second)
	if m.Counters().Restores == 0 {
		t.Fatal("guest never restored after penalty")
	}
	if !m.live.cooperative(m.drivers[rt1.G.ID()]) {
		t.Fatal("recovered guest still non-cooperative")
	}
	if rt1.G.Disk("xvda").Cache.DirtyPages() != 0 {
		t.Fatal("recovered guest's cache not drained")
	}
	if syncs[rt1.G.ID()] == 0 {
		t.Fatal("recovered guest never handled a flush order")
	}
}

// A crashed driver stops heartbeating; the manager must demote the guest
// at the next decision site, and a driver re-registration (module reload)
// must restore it immediately — no penalty wait. The manager's watch on
// the guest outlives the crash: the restarted driver's heartbeats reach
// liveness, and each reaches the manager's watch before the driver's
// re-registered one.
func TestCrashedDriverFallsBackAndRestartRestores(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Flush: true}, ManagerConfig{}, 12)
	rt := flushyGuest(h)
	drv := m.EnableGuest(rt)
	dom := rt.G.ID()
	k.RunUntil(500 * sim.Millisecond)
	if !m.live.cooperative(m.drivers[dom]) {
		t.Fatal("healthy heartbeating guest reported non-cooperative")
	}
	k.At(sim.Second, drv.Crash)
	k.RunUntil(2 * sim.Second)
	if !drv.crashed {
		t.Fatal("driver not crashed")
	}
	if m.live.cooperative(m.drivers[dom]) {
		t.Fatal("guest with 1s-stale heartbeat still cooperative")
	}
	if m.Counters().HeartbeatMisses == 0 || m.Counters().Fallbacks == 0 || !inFallback(m, dom) {
		t.Fatalf("miss/fallback not recorded: misses=%d fallbacks=%d",
			m.Counters().HeartbeatMisses, m.Counters().Fallbacks)
	}
	k.At(k.Now()+500*sim.Millisecond, drv.Restart)
	k.RunUntil(3 * sim.Second)
	if m.Counters().Restores == 0 || inFallback(m, dom) {
		t.Fatalf("re-registration did not restore: restores=%d", m.Counters().Restores)
	}
	if !m.live.cooperative(m.drivers[dom]) {
		t.Fatal("restarted guest not cooperative")
	}
	hb := store.DomainPath(dom) + "/" + keyHeartbeat
	var heard []int // the watching dom of each heartbeat notification
	h.Recorder().SetSink(func(r trace.Record) {
		if r.Kind == trace.KindStoreWatch && r.Path == hb {
			heard = append(heard, r.Dom)
		}
	})
	k.RunUntil(4 * sim.Second)
	if drv.lastBeat < 3900*sim.Millisecond {
		t.Fatalf("liveness last heard a beat at %v, want the restarted driver's beats up to 3.9 s", drv.lastBeat)
	}
	if len(heard) < 20 || len(heard)%2 != 0 {
		t.Fatalf("heartbeats in the last second notified %v, want a Dom0 and a dom%d notification each", heard, dom)
	}
	for i := 0; i < len(heard); i += 2 {
		if heard[i] != int(store.Dom0) || heard[i+1] != int(dom) {
			t.Fatalf("heartbeat %d notified doms %v in that order, want the manager's watch (dom0) first, then dom%d's", i/2, heard[i:i+2], dom)
		}
	}
}

// congestedGuest reproduces the Sec. 2 false-trigger shape: a tiny guest
// queue crosses 7/8 while the host array is uncongested, so the manager
// vetoes and must get release_request through to the guest.
func congestedGuest(k *sim.Kernel, h *hypervisor.Host, m *Manager) *hypervisor.GuestRuntime {
	rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
		guest.DiskConfig{Name: "xvda", QueueConfig: blkio.Config{Limit: 16, DispatchWindow: 4}})
	m.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	k.At(sim.Millisecond, func() {
		for i := 0; i < 40; i++ {
			d.Read(p, 64<<10, false, nil)
		}
	})
	return rt
}

// A lost release notification must be re-published after the ack timeout
// and still reach the guest.
func TestReleaseRetryRecoversLostNotification(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Congestion: true}, ManagerConfig{}, 13)
	rt := congestedGuest(k, h, m)
	dom := rt.G.ID()
	dropped := 0
	h.Store().SetFaultHooks(&store.FaultHooks{
		Delivery: func(d store.DomID, path string) (sim.Duration, bool) {
			if d == dom && strings.HasSuffix(path, keyReleaseRequest) && dropped < 1 {
				dropped++
				return 0, true
			}
			return 0, false
		},
	})
	k.RunUntil(3 * sim.Second)
	if dropped == 0 {
		t.Fatal("fault never injected")
	}
	if m.Counters().ReleaseRetries == 0 {
		t.Fatal("lost release never retried")
	}
	if h.Recorder().Count(trace.KindQueueRelease) == 0 {
		t.Fatal("guest never released despite retry")
	}
	if m.Counters().ReleaseTimeouts != 0 || inFallback(m, dom) {
		t.Fatal("single lost delivery must not exhaust retries")
	}
	if got := rt.G.Disk("xvda").Queue.Completed(); got != 40 {
		t.Fatalf("completed %d/40", got)
	}
}

// A guest that never acks exhausts the bounded retries, falls back, and
// the workload still completes on the kernel's local self-lift — the
// Baseline path.
func TestNeverAckingGuestFallsBackAndCompletes(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Congestion: true}, ManagerConfig{}, 14)
	rt := congestedGuest(k, h, m)
	dom := rt.G.ID()
	h.Store().SetFaultHooks(&store.FaultHooks{
		Delivery: func(d store.DomID, path string) (sim.Duration, bool) {
			// Every release delivery to the guest is lost: the driver can
			// never act, the manager must give up on its own.
			return 0, d == dom && strings.HasSuffix(path, keyReleaseRequest)
		},
	})
	k.RunUntil(5 * sim.Second)
	if m.Counters().ReleaseRetries == 0 || m.Counters().ReleaseTimeouts == 0 {
		t.Fatalf("retries=%d timeouts=%d, want both > 0",
			m.Counters().ReleaseRetries, m.Counters().ReleaseTimeouts)
	}
	if m.Counters().Fallbacks == 0 {
		t.Fatal("never-acking guest never demoted")
	}
	// The driver itself is alive and heartbeating (only its release
	// notifications are lost), so after FallbackPenalty the heartbeat path
	// legitimately restores it — it may be out of fallback again by now.
	if got := rt.G.Disk("xvda").Queue.Completed(); got != 40 {
		t.Fatalf("completed %d/40 — degradation stalled the guest's own I/O", got)
	}
}

// Guests that stop heartbeating are demoted at the next flush tick —
// every one with an observed mirror, the clean one too, which no argmax
// would ask about — in ascending dom order, before Algorithm 1 picks; the
// order then goes to the one live guest, though each stale guest holds
// more dirty pages. The manager meets the guests in descending dom order,
// so the demotions cannot follow the order it met them in.
func TestStaleGuestsDemotedInDomOrder(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Flush: true}, ManagerConfig{FlushCheckInterval: sim.Second}, 17)
	const live, clean = 4, 3
	rts := make([]*hypervisor.GuestRuntime, 7)
	for i := range rts {
		rts[i] = flushyGuest(h)
		if dom := rts[i].G.ID(); dom != store.DomID(i+1) {
			t.Fatalf("guest %d is dom %d, want %d", i, dom, i+1)
		}
	}
	drivers := make([]*Driver, len(rts))
	for i := len(rts) - 1; i >= 0; i-- {
		drivers[i] = m.EnableGuest(rts[i])
	}
	var log []string
	h.Recorder().SetSink(func(r trace.Record) {
		switch r.Kind {
		case trace.KindHeartbeatMiss, trace.KindFallbackEnter, trace.KindFlushOrder:
			log = append(log, fmt.Sprintf("%s %d", r.Kind, r.Dom))
		}
	})
	k.At(sim.Millisecond, func() {
		for i, rt := range rts {
			mb := 32 + 8*i
			switch rt.G.ID() {
			case clean:
				continue
			case live:
				mb = 16
			}
			rt.G.Disk("xvda").Write(rt.G.NewProcess(1), int64(mb)<<20, nil)
		}
	})
	// Crashed after their counts are published and settled; their last
	// beat is 200 ms, so they are stale long before the first flush tick
	// (one FlushCheckInterval after the first dirty mirror, ~1 s).
	k.At(250*sim.Millisecond, func() {
		for _, drv := range drivers {
			if drv.id != live {
				drv.Crash()
			}
		}
	})
	k.RunUntil(sim.Second)
	if len(log) != 0 {
		t.Fatalf("before the first flush tick: %q, want nothing", log)
	}
	k.RunUntil(1500 * sim.Millisecond)
	var want []string
	for dom := 1; dom <= len(rts); dom++ {
		if dom != live {
			want = append(want, fmt.Sprint(trace.KindHeartbeatMiss, " ", dom), fmt.Sprint(trace.KindFallbackEnter, " ", dom))
		}
	}
	want = append(want, fmt.Sprint(trace.KindFlushOrder, " ", live))
	if !slices.Equal(log, want) {
		t.Fatalf("after one flush tick:\n got %q\nwant %q", log, want)
	}
}

func TestDisableGuestForgetsDegradationState(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Flush: true}, ManagerConfig{}, 15)
	rt := flushyGuest(h)
	drv := m.EnableGuest(rt)
	dom := rt.G.ID()
	k.At(sim.Second, drv.Crash)
	k.RunUntil(2 * sim.Second)
	if m.live.cooperative(m.drivers[dom]) {
		t.Fatal("crashed guest cooperative")
	}
	m.DisableGuest(dom)
	if m.drivers[dom] != nil {
		t.Fatal("DisableGuest left state behind")
	}
	// Counters keep their history; a fresh guest starts clean.
	rt2 := flushyGuest(h)
	m.EnableGuest(rt2)
	k.RunUntil(3 * sim.Second)
	if !m.live.cooperative(m.drivers[rt2.G.ID()]) {
		t.Fatal("fresh guest not cooperative")
	}
}

// A guest detached while its staggered relief release is still pending
// gets no release: nothing is written to or recorded against the
// departed domain, no ack retry runs, and no fallback is entered.
func TestStaggeredReleaseSkipsDepartedGuest(t *testing.T) {
	k, h, m := mkPlatformCfg(t, Policies{Congestion: true}, ManagerConfig{}, 16)
	stay := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30})
	leave := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30})
	m.EnableGuest(stay)
	m.EnableGuest(leave)
	k.RunUntil(10 * sim.Millisecond)
	// Hold both, as two confirmed queries would, then relieve the idle
	// host: stay is released at once, leave after a non-zero stagger.
	cc := m.congest
	for _, rt := range []*hypervisor.GuestRuntime{stay, leave} {
		dd := m.drivers[rt.G.ID()].disk("xvda")
		cc.held = append(cc.held, congEntry{dd: dd, since: k.Now()})
		dd.held = true
	}
	cc.congestionTick()
	gone := leave.G.ID()
	m.DisableGuest(gone)
	released := 0
	var late []trace.Record
	h.Recorder().SetSink(func(r trace.Record) {
		if r.Kind == trace.KindCongestRelease && r.Dom == int(stay.G.ID()) {
			released++
		}
		if r.Dom == int(gone) {
			late = append(late, r)
		}
	})
	k.RunUntil(k.Now() + m.cfg.ReleaseStaggerMax + 4*releaseAckTimeout)
	if released != 1 {
		t.Fatalf("the staying guest got %d releases, want 1", released)
	}
	if len(late) > 0 {
		t.Fatalf("%d records against the departed guest, first %s", len(late), late[0].Kind)
	}
	if m.Counters().Fallbacks != 0 {
		t.Fatalf("fallback entered for the departed guest (%d fallbacks)", m.Counters().Fallbacks)
	}
}
