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
// routed write changes. A policy left off renders empty.
func routingProbe(m *Manager, dom store.DomID) map[string]string {
	p := map[string]string{}
	if fc := m.flush; fc != nil {
		st, ok := fc.mon.Dirty(dom, "xvda")
		p["flush"] = fmt.Sprint(st, ok, fc.outstandingDom)
	}
	if cc := m.congest; cc != nil {
		verdicts := m.rec.Count(trace.KindCongestVeto) + m.rec.Count(trace.KindCongestConfirm)
		p["congestion"] = fmt.Sprint(verdicts, cc.pendingRel[dom] != nil)
	}
	if cc := m.cosched; cc != nil {
		p["cosched"] = fmt.Sprint(cc.sample.timer != nil)
	}
	var beat sim.Time
	if n := m.live.beats[dom]; n != nil {
		beat = n.last
	}
	p["liveness"] = fmt.Sprint(beat, m.live.inFallback(dom))
	return p
}

// TestStoreEventRouting writes every key the manager routes, as the guest
// driver would, under every policy set the experiments run, and checks
// that exactly the owning policy reacted when it is on and nothing
// reacted when it is off; liveness is always on. Keys nobody routes —
// among them a disk key spelled at domain level — change nothing.
func TestStoreEventRouting(t *testing.T) {
	type write struct {
		rel, value string
		owner      string // "" for an unrouted key
		// prime puts the owner in a state the write can visibly change.
		prime func(m *Manager, dom store.DomID)
	}
	writes := []write{
		{rel: diskKey("xvda", keyHasDirty), value: "1", owner: "flush"},
		{rel: diskKey("xvda", keyNrDirty), value: "4096", owner: "flush"},
		{rel: diskKey("xvda", keyFlushNow), value: "0", owner: "flush",
			prime: func(m *Manager, dom store.DomID) {
				if m.flush != nil {
					m.flush.outstandingDom, m.flush.outstandingDisk = dom, "xvda"
				}
			}},
		{rel: diskKey("xvda", keyCongestQuery), value: "1", owner: "congestion"},
		{rel: keyReleaseRequest, value: "0", owner: "congestion",
			prime: func(m *Manager, dom store.DomID) {
				if m.congest != nil {
					m.congest.armReleaseRetry(dom, "xvda")
				}
			}},
		{rel: keyHeartbeat, value: "7", owner: "liveness"},
		{rel: keyDriverPresent, value: "1", owner: "liveness",
			prime: func(m *Manager, dom store.DomID) { m.live.enterFallback(dom, "test") }},
		{rel: keyTotalWeight, value: "4", owner: "cosched"},
		{rel: socketKey(keyWeightPrefix, 0), value: "1", owner: "cosched"},

		{rel: diskKey("xvda", keyCongested), value: "0"},
		{rel: keyVMShare, value: "0.5"},
		{rel: socketKey(keyTargetPrefix, 0), value: "0.5"},
		{rel: keyNrDirty, value: "4096"},
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
			before := routingProbe(m, dom)
			if err := rt.Dom.Write(w.rel, w.value); err != nil {
				t.Fatalf("%s: write %s: %v", tc.name, w.rel, err)
			}
			k.RunUntil(k.Now() + sim.Millisecond)
			after := routingProbe(m, dom)
			for owner, was := range before {
				if changed, want := after[owner] != was, owner == w.owner && on[owner]; changed != want {
					t.Errorf("%s: %s=%s: %s changed=%v (%s -> %s), want %v",
						tc.name, w.rel, w.value, owner, changed, was, after[owner], want)
				}
			}
		}
	}
}
