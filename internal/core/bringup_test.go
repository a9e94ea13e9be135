package core

import (
	"runtime"
	"slices"
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
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

// Bringing a guest up is the manager's watch on the guest and 14 creating
// store writes under it, none of whose deliveries can run before the
// kernel does, so what a created key costs is what a guest costs. Each key
// is resolved and allocated once — its node, and a note in the store's
// ring that its guest's other notes of the instant share one delivery
// record with; its path is a slice of the one string the driver's key
// table cuts them all from, its cursor a field of the driver, and a key
// below the guest's home enters the store's index only when a path string
// first names it — which this pins for the 200th and later guests of a
// host (a scale_10k_50h kernel holds 200), growth of the host's maps and
// the note ring included as AllocsPerRun averages it.
//
// With a path-cache entry with a tokenized copy of the path beside every
// node, three string-keyed maps per key, a journal grown by doubling and
// three allocations per pending delivery, this read 217 allocations and
// 17.0 KB per guest; with a path string, a heap cursor and a map entry
// per key in the bus handle, 140 and 12.6 KB; with the manager's
// liveness beat node and G-state cursor on the heap beside the driver,
// 90 and 11.2 KB; with a read-latency histogram per virtual disk, 88
// and 11.2 KB; with every node indexed and a delivery record and kernel
// event per pending notification, 87 and 11.1 KB; with a subtree hash
// term on every node and a mutation journal slot per write, 74 and 7.5
// KB; with one Dom0 watch over every domain, 74 and 7.1 KB. It reads 77
// and 7.3 KB: the manager's watch on the guest is its callback, its
// record and the guest's watch list grown to two.
func TestGuestBringUpAllocs(t *testing.T) {
	_, _, oneMore := bringUpHost(199)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { oneMore() })
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // one warm-up call
	t.Logf("bring-up of one guest: %.0f allocations, %.0f bytes", allocs, bytes)
	const maxAllocs, maxBytes = 80, 8192 // 8.0 KB
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("bring-up of one guest costs %.0f allocations and %.0f bytes, want at most %d and %d", allocs, bytes, maxAllocs, maxBytes)
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
// guests that stay, the host holds three, the bus holds three handles
// (each of which would pin its guest's store nodes) and the manager three
// drivers. No watch outlives its guest: a Dom0 write under any departed
// dom's home notifies nobody. Every departed driver's registration writes
// were still in flight at its departure; once the kernel has run them,
// and a second of heartbeats on top, the manager still holds three
// drivers and has heard none of them: the store dropped each, its watch
// gone, so none brought its guest back or counted as an orphan.
func TestDepartedGuestsAreForgotten(t *testing.T) {
	h, m, oneMore := bringUpHost(3) // doms 1, 2 and 3
	var departed []store.DomID
	for i := 0; i < 1000; i++ {
		id := oneMore().G.ID()
		m.DisableGuest(id)
		h.RemoveGuest(id)
		departed = append(departed, id)
	}
	var held []store.DomID
	for _, id := range append([]store.DomID{1, 2, 3}, departed...) {
		if h.Guest(id) != nil {
			held = append(held, id)
		}
	}
	if d, drv := len(h.Bus().Domains()), len(m.drivers); !slices.Equal(held, []store.DomID{1, 2, 3}) || d != 3 || drv != 3 {
		t.Fatalf("after 1000 arrivals and departures: the host holds doms %v, %d bus domains, %d drivers; want doms 1-3 and 3 of each", held, d, drv)
	}
	st := h.Store()
	_, _, before := st.Stats()
	for _, id := range departed {
		if err := st.Write(store.Dom0, store.DomainPath(id)+"/"+keyHeartbeat, "1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, after := st.Stats(); after != before {
		t.Fatalf("Dom0 writes under %d departed doms made %d notifications, want 0", len(departed), after-before)
	}
	orphans := m.Counters().OrphanEvents
	h.Kernel().RunUntil(h.Kernel().Now() + sim.Second)
	if late := m.Counters().OrphanEvents - orphans; len(m.drivers) != 3 || late != 0 {
		t.Fatalf("after the kernel ran 1 s: %d drivers, %d orphan events; want 3 drivers and none", len(m.drivers), late)
	}
}
