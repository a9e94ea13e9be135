package baselines

import (
	"strconv"
	"strings"
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// idleSignals counts, from now on, the disk_idle signals DIF raises for
// each guest: its writes of "1" to the guest's key, as the host's
// recorder sees them. The host must be built with Trace on.
func idleSignals(h *hypervisor.Host) map[store.DomID]int {
	n := map[store.DomID]int{}
	h.Recorder().SetSink(func(r trace.Record) {
		if r.Kind == trace.KindStoreWrite && r.Value == "1" && strings.HasSuffix(r.Path, "/disk_idle") {
			id, _, _ := strings.Cut(strings.TrimPrefix(r.Path, store.Root+"/"), "/")
			dom, _ := strconv.Atoi(id)
			n[store.DomID(dom)]++
		}
	})
	return n
}

func TestDIFFlushesOnIdle(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(1, "dif")
	h := hypervisor.New(k, hypervisor.Config{Trace: true}, rng.Fork("host"))
	dif := NewDIF(h)
	signals := idleSignals(h)
	rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
		guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
			WakeInterval: 60 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
		}})
	dif.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	k.At(sim.Millisecond, func() { d.Write(p, 16<<20, nil) })
	k.RunUntil(2 * sim.Second)
	if d.Cache.DirtyPages() != 0 {
		t.Fatalf("DIF left %d dirty pages", d.Cache.DirtyPages())
	}
	if signals[rt.G.ID()] == 0 {
		t.Fatal("no idleness signals published")
	}
}

func TestDIFSignalsAllDirtyGuestsAtOnce(t *testing.T) {
	// The defining contrast with IOrchestra: both dirty guests get the
	// idle signal in the same tick (thundering herd).
	k := sim.NewKernel()
	rng := stats.NewStream(2, "dif")
	h := hypervisor.New(k, hypervisor.Config{Trace: true}, rng.Fork("host"))
	dif := NewDIF(h)
	signals := idleSignals(h)
	mk := func() *hypervisor.GuestRuntime {
		rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30},
			guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
				WakeInterval: 60 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
			}})
		dif.EnableGuest(rt)
		return rt
	}
	rt1, rt2 := mk(), mk()
	p1, p2 := rt1.G.NewProcess(1), rt2.G.NewProcess(1)
	k.At(sim.Millisecond, func() {
		rt1.G.Disk("xvda").Write(p1, 8<<20, nil)
		rt2.G.Disk("xvda").Write(p2, 8<<20, nil)
	})
	k.RunUntil(150 * sim.Millisecond)
	if signals[rt1.G.ID()] == 0 || signals[rt2.G.ID()] == 0 {
		t.Fatalf("signals per guest = %v, want both guests signalled", signals)
	}
	k.RunUntil(3 * sim.Second)
	if rt1.G.Disk("xvda").Cache.DirtyPages() != 0 || rt2.G.Disk("xvda").Cache.DirtyPages() != 0 {
		t.Fatal("caches not drained")
	}
}

func TestSDCRoutesToHomeSocketOnly(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(4, "sdc")
	cfg := hypervisor.Config{Mode: hypervisor.ModeDedicated, Sockets: 2, CoresPerSocket: 2}
	h := hypervisor.New(k, cfg, rng.Fork("host"))
	sdc := NewSDC(h)
	// Cross-socket guest: 2 VCPUs but only 1 free core per socket.
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	sdc.EnableGuest(rt)
	d := rt.G.Disk("xvda")
	p0 := rt.G.NewProcess(1)
	p1 := rt.G.NewProcess(1)
	for i := 0; i < 10; i++ {
		d.Read(p0, 4096, false, nil)
		d.Read(p1, 4096, false, nil)
	}
	k.Run()
	home := h.IOCores()[rt.HomeSocket]
	other := h.IOCores()[1-rt.HomeSocket]
	if home.Processed() != 20 || other.Processed() != 0 {
		t.Fatalf("SDC routing: home=%d other=%d, want all on home socket",
			home.Processed(), other.Processed())
	}
}
