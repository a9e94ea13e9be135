package core

import (
	"fmt"
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// routingProbe renders, per owner of routed store keys, the state a
// routed write changes. A policy left off renders empty; per-guest state
// renders as zero once the guest's driver is gone.
func routingProbe(m *Manager, dom store.DomID) map[string]string {
	p := map[string]string{}
	drv := m.drivers[dom]
	if fc := m.flush; fc != nil {
		var st hypervisor.DirtyState
		var ok bool
		if drv != nil {
			st, ok = drv.disk("xvda").dirty.State()
		}
		p["flush"] = fmt.Sprint(st, ok, fc.mon.AnyDirty(), fc.outstanding != nil)
	}
	if cc := m.congest; cc != nil {
		verdicts := m.rec.Count(trace.KindCongestVeto) + m.rec.Count(trace.KindCongestConfirm)
		p["congestion"] = fmt.Sprint(verdicts, drv != nil && drv.pendingRel != nil)
	}
	if cc := m.cosched; cc != nil {
		p["cosched"] = fmt.Sprint(cc.sample.timer != nil)
	}
	var beat sim.Time
	if drv != nil {
		beat = drv.lastBeat
	}
	p["liveness"] = fmt.Sprint(beat, inFallback(m, dom))
	return p
}

// TestStoreEventRouting writes every key the manager routes, as the guest
// driver would, under every policy set the experiments run, and checks
// that exactly the owning policy reacted when it is on and nothing
// reacted when it is off; liveness is always on. Keys nobody routes —
// among them a disk key spelled at domain level — change nothing, and a
// key under a disk the driver does not drive reaches no policy and is
// counted. Then it writes each key again just before DisableGuest: the
// manager's watch on the guest goes with it, and the store drops an
// event whose watch went while it was in flight, so the departed
// guest's key reaches nothing, not even the Monitor's dirty mirror, and
// counts no orphan.
func TestStoreEventRouting(t *testing.T) {
	type write struct {
		rel, value string
		owner      string // "" for a key no policy takes
		orphan     bool   // names a disk the driver does not drive
		// prime puts the owner in a state the write can visibly change.
		prime func(m *Manager, dom store.DomID)
	}
	writes := []write{
		{rel: diskKey("xvda", keyHasDirty), value: "1", owner: "flush"},
		{rel: diskKey("xvda", keyNrDirty), value: "4096", owner: "flush"},
		{rel: diskKey("xvda", keyFlushNow), value: "0", owner: "flush",
			prime: func(m *Manager, dom store.DomID) {
				if m.flush != nil {
					m.flush.outstanding = m.drivers[dom].disk("xvda")
				}
			}},
		{rel: diskKey("xvda", keyCongestQuery), value: "1", owner: "congestion"},
		{rel: keyReleaseRequest, value: "0", owner: "congestion",
			prime: func(m *Manager, dom store.DomID) {
				if m.congest != nil {
					m.congest.armReleaseRetry(m.drivers[dom].disk("xvda"))
				}
			}},
		{rel: keyHeartbeat, value: "7", owner: "liveness"},
		{rel: keyDriverPresent, value: "1", owner: "liveness",
			prime: func(m *Manager, dom store.DomID) { m.live.enterFallback(m.drivers[dom], "test") }},
		{rel: keyTotalWeight, value: "4", owner: "cosched"},
		{rel: socketKey(keyWeightPrefix, 0), value: "1", owner: "cosched"},

		{rel: diskKey("xvda", keyCongested), value: "0"},
		{rel: socketKey(keyTargetPrefix, 0), value: "0.5"},
		{rel: keyNrDirty, value: "4096"},
		{rel: diskKey("xvdb", keyHasDirty), value: "1", orphan: true},
	}
	cases := []struct {
		name string
		pol  Policies
	}{
		{"all", All()},
		{"flush", Policies{Flush: true}},
		{"congestion", Policies{Congestion: true}},
		{"cosched", Policies{Cosched: true}},
		{"gstate", Policies{GState: true}},
	}
	for _, departed := range []bool{false, true} {
		for _, tc := range cases {
			on := map[string]bool{
				"flush": tc.pol.Flush, "congestion": tc.pol.Congestion,
				"cosched": tc.pol.Cosched, "liveness": true,
			}
			for _, w := range writes {
				k, h, m := mkPlatform(t, hypervisor.Config{}, tc.pol, 21)
				rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 30})
				m.EnableGuest(rt)
				dom := rt.G.ID()
				// Between heartbeats (every 100 ms from attach) and after
				// the cosched cadence armed at attach has lapsed on a host
				// without I/O cores.
				k.RunUntil(250 * sim.Millisecond)
				if w.prime != nil {
					w.prime(m, dom)
				}
				k.RunUntil(k.Now() + sim.Millisecond)
				if err := h.Store().Write(dom, store.DomainPath(dom)+"/"+w.rel, w.value); err != nil {
					t.Fatalf("%s: write %s: %v", tc.name, w.rel, err)
				}
				if departed {
					m.DisableGuest(dom)
				}
				before, orphans := routingProbe(m, dom), m.Counters().OrphanEvents
				k.RunUntil(k.Now() + sim.Millisecond)
				after := routingProbe(m, dom)
				for owner, was := range before {
					want := owner == w.owner && on[owner] && !departed
					if changed := after[owner] != was; changed != want {
						t.Errorf("%s (departed %v): %s=%s: %s changed=%v (%s -> %s), want %v",
							tc.name, departed, w.rel, w.value, owner, changed, was, after[owner], want)
					}
				}
				wantOrphans := uint64(0)
				if w.orphan && !departed {
					wantOrphans = 1
				}
				if got := m.Counters().OrphanEvents - orphans; got != wantOrphans {
					t.Errorf("%s (departed %v): %s=%s: %d orphan events, want %d",
						tc.name, departed, w.rel, w.value, got, wantOrphans)
				}
				if departed && h.Monitor().AnyDirty() {
					t.Errorf("%s: %s=%s after DisableGuest left a dirty candidate", tc.name, w.rel, w.value)
				}
			}
		}
	}
}

// A warm manager takes each routed key, at a value a steady guest
// repeats, without allocating: dispatch starts from the driver the
// guest's watch holds, finds the disk by a scan, and the policy's state
// is a field of either. The values arm no verdict and no retry; a
// cadence a key arms is armed by the warm-up call.
func TestManagerDispatchAllocs(t *testing.T) {
	h, m, oneMore := bringUpHost(7)
	drv := m.drivers[oneMore().G.ID()]
	h.Kernel().RunUntil(sim.Second)
	for _, kv := range []struct{ rel, value string }{
		{diskKey("xvda", keyHasDirty), "1"},
		{diskKey("xvda", keyNrDirty), "4096"},
		{diskKey("xvda", keyFlushNow), "0"},
		{diskKey("xvda", keyCongestQuery), "0"},
		{keyReleaseRequest, "0"},
		{keyHeartbeat, "7"},
		{keyDriverPresent, "1"},
		{keyTotalWeight, "4"},
		{socketKey(keyWeightPrefix, 0), "1"},
	} {
		allocs := testing.AllocsPerRun(100, func() { m.onStoreEvent(drv, kv.rel, kv.value) })
		t.Logf("%s=%s: %.2f allocations", kv.rel, kv.value, allocs)
		if allocs != 0 {
			t.Errorf("dispatching %s=%s allocates %.2f objects, want 0", kv.rel, kv.value, allocs)
		}
	}
}
