package core

import (
	"runtime"
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// bringUpHost returns a host under a manager running every policy, with
// n guests up, and the function that brings up one more the way every
// bed does: CreateGuest (2 VCPUs, one xvda) then EnableGuest.
func bringUpHost(n int) (h *hypervisor.Host, m *Manager, oneMore func() *hypervisor.GuestRuntime) {
	rng := stats.NewStream(7, "bringup")
	h = hypervisor.New(sim.NewKernel(), hypervisor.Config{}, rng.Fork("host"))
	m = NewManager(h, All(), ManagerConfig{}, rng.Fork("mgr"))
	oneMore = func() *hypervisor.GuestRuntime {
		rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 1 << 30}, guest.DiskConfig{Name: "xvda"})
		m.EnableGuest(rt)
		return rt
	}
	for i := 0; i < n; i++ {
		oneMore()
	}
	return h, m, oneMore
}

// Bringing a guest up is 14 creating store writes under a Dom0 watcher,
// none of whose deliveries can run before the kernel does, so what a
// created key costs is what a guest costs. Each key is resolved,
// allocated and indexed once — its path string, its node, its handle
// and its pending delivery — which this pins for the 200th and later
// guests of a host (a scale_10k_50h kernel holds 200), growth of the
// host's maps included as AllocsPerRun averages it.
//
// At the parent commit (3731c9c: a path-cache entry with a tokenized copy
// of the path beside every node, three string-keyed maps per key, a
// journal grown by doubling, three allocations per pending delivery) this
// read 217 allocations and 17.0 KB per guest; it reads 140 and 13.0 KB.
func TestGuestBringUpAllocs(t *testing.T) {
	_, _, oneMore := bringUpHost(199)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { oneMore() })
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // one warm-up call
	t.Logf("bring-up of one guest: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > 150 || bytes > 15<<10 {
		t.Fatalf("bring-up of one guest costs %.0f allocations and %.0f bytes, want at most 150 and %d", allocs, bytes, 15<<10)
	}
}

// BenchmarkGuestBringUp is the cost line behind the test above and
// behind the repo benchmark's setup_s on scale_10k_50h: one iteration
// brings up a host's 200 guests.
func BenchmarkGuestBringUp(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		bringUpHost(200)
	}
}

// A host that guests come and go on holds its live population and no
// more: after 1,000 create/enable/disable/remove cycles beside three
// guests that stay, the host lists three, the bus holds three handles
// (each of which would pin its guest's store nodes) and the manager three
// drivers.
func TestDepartedGuestsAreForgotten(t *testing.T) {
	h, m, oneMore := bringUpHost(3)
	for i := 0; i < 1000; i++ {
		id := oneMore().G.ID()
		m.DisableGuest(id)
		h.RemoveGuest(id)
	}
	if g, d, drv := len(h.Guests()), len(h.Bus().Domains()), len(m.drivers); g != 3 || d != 3 || drv != 3 {
		t.Fatalf("after 1000 arrivals and departures: %d guests listed, %d bus domains, %d drivers; want 3 of each", g, d, drv)
	}
}
