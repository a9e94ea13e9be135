package core

import (
	"fmt"
	"testing"

	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// benchHost builds one host with n enabled guests under a sustained
// dirtying workload: each guest runs a self-rescheduling writer so
// dirty pages and queue pressure stay present for as long as the
// benchmark runs.
func benchHost(n int, pol Policies) *sim.Kernel {
	k := sim.NewKernel()
	rng := stats.NewStream(7, "bench")
	h := hypervisor.New(k, hypervisor.Config{}, rng.Fork("host"))
	m := NewManager(h, pol, ManagerConfig{}, rng.Fork("mgr"))
	for i := 0; i < n; i++ {
		rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 1 << 30},
			guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
				WakeInterval: 30 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
			}})
		if pol.GState {
			// Declare a round-robin tier mix before EnableGuest so the
			// G-state controller's synchronous Attach sees the SLA.
			tier := []gstate.Tier{gstate.Gold, gstate.Silver, gstate.Bronze}[i%3]
			gstate.PublishSLA(h.Store(), rt.G.ID(), tier, gstate.SLA{})
		}
		m.EnableGuest(rt)
		d := rt.G.Disk("xvda")
		p := rt.G.NewProcess(1)
		var write func()
		write = func() {
			d.Write(p, 1<<20, nil)
			k.After(10*sim.Millisecond, write)
		}
		// Stagger starts across the write interval (offset is a pure
		// function of i so the build is deterministic at any scale).
		k.After(sim.Duration(1+i%10)*sim.Millisecond+sim.Duration(i/10)*sim.Microsecond, write)
	}
	return k
}

// BenchmarkManagerTick measures the steady-state cost of one management
// check interval (50 ms of simulated time) under a sustained dirtying
// workload — the decision loops plus the store/watch traffic they
// trigger. Per policy at the historical 8-guest scale, then the full
// policy set at 100 and 1000 guests, where the per-decision scans
// (Algorithm 1's argmax, the stale-heartbeat sweep) and the congestion
// verdict set carry the load; the repo benchmark (go run ./bench) scales
// the same scenario across parallel per-host kernels.
func BenchmarkManagerTick(b *testing.B) {
	cases := []struct {
		name   string
		guests int
		pol    Policies
	}{
		{"flush", 8, Policies{Flush: true}},
		{"congestion", 8, Policies{Congestion: true}},
		{"cosched", 8, Policies{Cosched: true}},
		{"gstate", 8, Policies{GState: true}},
		{"gstate", 100, Policies{GState: true}},
		{"gstate", 1000, Policies{GState: true}},
		{"all", 8, All()},
		{"all", 100, All()},
		{"all", 1000, All()},
	}
	for _, bc := range cases {
		bc := bc
		b.Run(fmt.Sprintf("%s/%dguests", bc.name, bc.guests), func(b *testing.B) {
			k := benchHost(bc.guests, bc.pol)
			// Reach steady state before timing.
			k.RunUntil(sim.Second)
			now := k.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 50 * sim.Millisecond
				k.RunUntil(now)
			}
		})
	}
}
