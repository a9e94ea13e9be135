package core

import (
	"strconv"
	"testing"

	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Key paths spelled out the long way, as the driver's key table holds
// them: diskKey and socketKey are relative to the domain's home, absDiskKey
// is absolute.
func diskKey(disk, key string) string { return "virt-dev/" + disk + "/" + key }

func socketKey(prefix string, socket int) string { return prefix + "/" + strconv.Itoa(socket) }

func absDiskKey(dom store.DomID, disk, key string) string { return store.DiskPath(dom, disk, key) }

func mkPlatform(t *testing.T, hcfg hypervisor.Config, pol Policies, seed uint64) (*sim.Kernel, *hypervisor.Host, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	rng := stats.NewStream(seed, "platform")
	h := hypervisor.New(k, hcfg, rng.Fork("host"))
	m := NewManager(h, pol, ManagerConfig{}, rng.Fork("mgr"))
	return k, h, m
}

// perDom counts, from now on, the records of one kind the host's
// recorder takes for each domain. The host must be built with Trace on.
func perDom(h *hypervisor.Host, kind trace.Kind) map[store.DomID]int {
	n := map[store.DomID]int{}
	h.Recorder().SetSink(func(r trace.Record) {
		if r.Kind == kind {
			n[store.DomID(r.Dom)]++
		}
	})
	return n
}

func TestFlushPolicyDrainsDirtyPagesDuringIdle(t *testing.T) {
	k, h, m := mkPlatform(t, hypervisor.Config{Trace: true}, Policies{Flush: true}, 1)
	rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
		guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
			// Long flusher period and generous ratios: without IOrchestra
			// nothing would flush for 30+ seconds.
			WakeInterval: 30 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
		}})
	m.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	k.At(sim.Millisecond, func() { d.Write(p, 32<<20, nil) })
	k.RunUntil(2 * sim.Second)
	if d.Cache.DirtyPages() != 0 {
		t.Fatalf("dirty pages after idle period: %d", d.Cache.DirtyPages())
	}
	if m.Counters().FlushNotices == 0 {
		t.Fatal("management module never issued flush_now")
	}
	if h.Recorder().Count(trace.KindFlushSync) == 0 {
		t.Fatal("guest driver never handled flush_now")
	}
	// flush_now was reset by the guest.
	if v, _ := h.Store().Read(store.Dom0, absDiskKey(rt.G.ID(), "xvda", keyFlushNow)); v != "0" {
		t.Fatal("flush_now not reset")
	}
}

func TestFlushPolicyPicksArgmaxDirty(t *testing.T) {
	k, h, m := mkPlatform(t, hypervisor.Config{Trace: true}, Policies{Flush: true}, 2)
	mk := func() *hypervisor.GuestRuntime {
		return h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
			guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
				WakeInterval: 60 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
			}})
	}
	rt1, rt2 := mk(), mk()
	m.EnableGuest(rt1)
	m.EnableGuest(rt2)
	syncs := perDom(h, trace.KindFlushSync)
	p1 := rt1.G.NewProcess(1)
	p2 := rt2.G.NewProcess(1)
	k.At(sim.Millisecond, func() {
		rt1.G.Disk("xvda").Write(p1, 16<<20, nil) // 4096 dirty pages
		rt2.G.Disk("xvda").Write(p2, 64<<20, nil) // 16384 dirty pages
	})
	// Run long enough for the first flush decision (the manager waits out
	// the dirty-set growth guard before acting).
	k.RunUntil(400 * sim.Millisecond)
	s1, s2 := syncs[rt1.G.ID()], syncs[rt2.G.ID()]
	if s2 == 0 {
		t.Fatalf("guest with most dirty pages not flushed first (d1=%d d2=%d)", s1, s2)
	}
	if s1 != 0 {
		t.Fatal("smaller guest flushed before argmax guest")
	}
	k.RunUntil(5 * sim.Second)
	// Eventually both drain.
	if rt1.G.Disk("xvda").Cache.DirtyPages() != 0 || rt2.G.Disk("xvda").Cache.DirtyPages() != 0 {
		t.Fatal("caches not drained")
	}
}

func TestCongestionVetoReleasesQueue(t *testing.T) {
	// A tiny queue limit makes the guest cross its 7/8 threshold while
	// the big host array stays uncongested — the false trigger from
	// Sec. 2. The manager must veto and release the producers.
	k, h, m := mkPlatform(t, hypervisor.Config{Trace: true}, Policies{Congestion: true}, 3)
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
	k.RunUntil(2 * sim.Second)
	if m.Counters().Vetoes == 0 {
		t.Fatalf("manager never vetoed a false congestion trigger (confirms=%d)", m.Counters().Confirms)
	}
	if h.Recorder().Count(trace.KindQueueRelease) == 0 {
		t.Fatal("guest driver never released the queue")
	}
	if got := d.Queue.Completed(); got != 40 {
		t.Fatalf("completed %d/40 requests", got)
	}
	if d.Queue.AvoidanceEngaged() {
		t.Fatal("avoidance still engaged at the end")
	}
}

func TestCongestionConfirmAndRelief(t *testing.T) {
	// A genuinely congested host device: the manager confirms, holds the
	// VM, and releases it FIFO-with-stagger once the device drains.
	k := sim.NewKernel()
	rng := stats.NewStream(6, "platform")
	ssdCfg := device.Intel520Config("slow")
	ssdCfg.SeqReadBps = 20e6 // slow device so its queue really fills
	ssdCfg.JitterFrac = 0
	ssdCfg.WriteTailOdds = 0
	ssdCfg.QueueLimit = 32
	dev := device.NewSSD(k, ssdCfg, rng.Fork("dev"))
	h := hypervisor.New(k, hypervisor.Config{Device: dev, MaxDeviceInFlight: 64}, rng.Fork("host"))
	m := NewManager(h, Policies{Congestion: true}, ManagerConfig{}, rng.Fork("mgr"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
		guest.DiskConfig{Name: "xvda", QueueConfig: blkio.Config{Limit: 64, DispatchWindow: 64}})
	m.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	k.At(sim.Millisecond, func() {
		for i := 0; i < 80; i++ {
			d.Read(p, 256<<10, false, nil)
		}
	})
	k.RunUntil(30 * sim.Second)
	if m.Counters().Confirms == 0 {
		t.Fatalf("manager never confirmed real congestion (vetoes=%d)", m.Counters().Vetoes)
	}
	if m.Counters().Relieves == 0 {
		t.Fatal("held VM never relieved after device drained")
	}
	if got := d.Queue.Completed(); got != 80 {
		t.Fatalf("completed %d/80", got)
	}
}

func TestCoschedPublishesTargetsAndQuanta(t *testing.T) {
	k, h, m := mkPlatform(t, hypervisor.Config{
		Mode: hypervisor.ModeDedicated, RouteBySocket: true, Sockets: 2, CoresPerSocket: 2,
		// Slow polling cores: on-core latency must exceed the manager's
		// contention gate for redistribution targets to be published.
		IOCoreCostPerReq: 50 * sim.Microsecond, IOCoreBps: 5e8,
	}, Policies{Cosched: true}, 4)
	// 2 sockets × 2 cores, core 0 reserved per socket → a 2-VCPU guest
	// spans both sockets.
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	drv := m.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	// All I/O processes start on socket of vcpu0: imbalanced.
	procs := make([]*guest.Process, 4)
	for i := range procs {
		procs[i] = rt.G.NewProcess(1)
	}
	drv.PublishWeights()
	// Generate traffic so cores observe latencies.
	var issue func()
	n := 0
	issue = func() {
		if n >= 2000 {
			return
		}
		n++
		d.Read(procs[n%4], 64<<10, false, issue)
	}
	k.At(sim.Millisecond, func() { issue(); issue(); issue(); issue() })
	k.RunUntil(4 * sim.Second)
	if m.Counters().CoschedRuns == 0 {
		t.Fatal("cosched never ran")
	}
	// Targets were published for both sockets.
	for _, s := range rt.G.Sockets() {
		f, err := h.Store().ReadFloat(store.Dom0,
			store.DomainPath(rt.G.ID())+"/"+socketKey(keyTargetPrefix, s), -1)
		if err != nil || f < 0 || f > 1 {
			t.Fatalf("target for socket %d = %v, %v", s, f, err)
		}
	}
	// Shares were published, and the cores' quanta set from them
	// (Q_i = BWmax · S_SKT, in the same step).
	shared := false
	for _, s := range rt.G.Sockets() {
		f, _ := h.Store().ReadFloat(store.Dom0,
			store.DomainPath(rt.G.ID())+"/"+socketKey(keySharePrefix, s), 0)
		shared = shared || f > 0
	}
	if !shared {
		t.Fatal("quanta never updated from defaults")
	}
}

func TestManagerCountersStartZero(t *testing.T) {
	_, _, m := mkPlatform(t, hypervisor.Config{}, All(), 5)
	if m.Counters().FlushNotices != 0 || m.Counters().Vetoes != 0 || m.Counters().Confirms != 0 ||
		m.Counters().Relieves != 0 || m.Counters().CoschedRuns != 0 {
		t.Fatal("counters not zeroed")
	}
}
