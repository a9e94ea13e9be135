package core

import (
	"runtime"
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// A warm co-scheduling update reads each guest's weights through its
// driver's cursors and writes its targets and shares through them: what
// it allocates is the values it writes, at most one object per key. Eight
// two-socket guests keep both I/O cores contended (a 400 µs polling cost
// per request against the 150 µs redistribution floor), so every update
// writes both kinds of key; only the updates are counted, the kernel runs
// between them.
func TestWarmCoschedUpdateAllocs(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(7, "cosched")
	h := hypervisor.New(k, hypervisor.Config{Mode: hypervisor.ModeDedicated, Sockets: 2, CoresPerSocket: 2,
		IOCoreCostPerReq: 400 * sim.Microsecond}, rng.Fork("host"))
	m := NewManager(h, Policies{Cosched: true}, ManagerConfig{}, rng.Fork("mgr"))
	for i := 0; i < 8; i++ {
		rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 1 << 30})
		if n := len(rt.G.Sockets()); n != 2 {
			t.Fatalf("guest %d spans %d sockets, want 2", i, n)
		}
		d := rt.G.Disk("xvda")
		for j := 0; j < 2; j++ {
			p := rt.G.NewProcess(float64(1 + j))
			var read func()
			read = func() { d.Read(p, 4096, false, read) }
			read()
		}
		m.EnableGuest(rt)
	}
	k.RunUntil(sim.Second)
	cc, st := m.cosched, h.Store()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var ms runtime.MemStats
	var allocs, writes uint64
	for i := 0; i < runs; i++ {
		cc.lastApply = k.Now() - m.cfg.CoschedInterval // due
		_, w0, _ := st.Stats()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		cc.coschedTick()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		_, w1, _ := st.Stats()
		writes += w1 - w0
		k.RunUntil(k.Now() + 10*sim.Millisecond)
	}
	perUpdate, keys := float64(allocs)/runs, float64(writes)/runs
	t.Logf("a warm co-scheduling update: %.2f allocations, %.2f keys written", perUpdate, keys)
	if keys != 32 {
		t.Fatalf("an update wrote %.2f keys, want 32: 8 guests' targets and shares on 2 sockets", keys)
	}
	if perUpdate > keys {
		t.Fatalf("a warm co-scheduling update allocates %.2f objects for %.0f keys written, want at most one per key", perUpdate, keys)
	}
}
