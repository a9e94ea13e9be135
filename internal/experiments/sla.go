package experiments

// The tiered-SLA experiment (docs/GSTATES.md): a multi-tenant host runs
// a mix of gold, silver and bronze guests under sustained congestion
// and the G-state controller is judged by the violation budget each
// tier actually burned.
//
// Table A sweeps tier mixes and compares Baseline, plain IOrchestra
// (flush + congestion, no G-states) and IOrchestra+gstate on a
// system-neutral yardstick: a shadow meter samples every guest's
// windowed mean host-path latency on the controller's own cadence and
// charges violation-seconds against the guest's declared per-tier
// latency budget. The shadow law is latency-only — Baseline has no
// performance states, so the bandwidth half of the controller's law
// would be meaningless there — and identical across systems, so the
// deltas are the policies' doing.
//
// Table B reports the controller's own meter (both violation laws,
// episode onsets and violation-seconds) for the gstate runs: the
// acceptance inequality "gold burns no more violation budget than
// bronze" is read off this table.
//
// Table C is the chaos composition: the same tiered population plus one
// uncooperative bronze guest — created, tier declared, workload
// running, but never enabled, so no store driver ever registers and no
// controller can actuate it. The rogue guest must not cause gold
// violations: the controller protects gold by demoting what it CAN
// control (the cooperative bronze and silver population).

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/workload"
)

// slaSampleEvery matches the G-state controller's decision cadence so
// the shadow meter and the controller judge the same windows.
const slaSampleEvery = 100 * sim.Millisecond

// slaMix is one tier population: gold strongest first.
type slaMix struct{ gold, silver, bronze int }

func (m slaMix) String() string { return fmt.Sprintf("%dg/%ds/%db", m.gold, m.silver, m.bronze) }

// slaMixes is the sweep: balanced, bronze-heavy, gold-heavy.
var slaMixes = []slaMix{{2, 2, 2}, {1, 2, 3}, {3, 2, 1}}

// slaVM is the congestion-prone profile (eight readahead streams
// against a small ring) with a declared tier: the population that keeps
// the device saturated enough for latency budgets to matter.
func slaVM(p *iorchestra.Platform, i int, tier gstate.Tier) *iorchestra.VM {
	rt := p.NewTieredVM(tier, gstate.SLA{}, 2, 2, workload.CongestProneDisk())
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 8, 1<<30, 1<<20,
		p.Rng.Fork(fmt.Sprintf("sla%d", i)))
	ms.Start()
	return rt
}

// slaShadow samples one platform's guests against their latency budgets
// and accrues a system-neutral violation meter.
type slaShadow struct {
	p     *iorchestra.Platform
	meter *gstate.Meter
	doms  []store.DomID
	tiers map[store.DomID]gstate.Tier
	last  map[store.DomID]struct {
		count uint64
		sum   sim.Time
	}
}

func newSLAShadow(p *iorchestra.Platform) *slaShadow {
	return &slaShadow{
		p:     p,
		meter: gstate.NewMeter(),
		tiers: map[store.DomID]gstate.Tier{},
		last: map[store.DomID]struct {
			count uint64
			sum   sim.Time
		}{},
	}
}

func (sh *slaShadow) watch(rt *iorchestra.VM, tier gstate.Tier) {
	sh.doms = append(sh.doms, rt.G.ID())
	sh.tiers[rt.G.ID()] = tier
}

// start arms the sampling loop: every interval, each watched guest's
// windowed mean host-path latency is judged against its tier's budget.
// A window with no completions carries no evidence and keeps the guest's
// previous verdict open (Observe is only called on evidence).
func (sh *slaShadow) start() {
	var tick func()
	tick = func() {
		now := sh.p.Kernel.Now()
		for _, dom := range sh.doms {
			count, sum := sh.p.Host.Monitor().GuestPathStats(dom)
			prev := sh.last[dom]
			sh.last[dom] = struct {
				count uint64
				sum   sim.Time
			}{count, sum}
			if count <= prev.count {
				continue
			}
			mean := sim.Duration(sum-prev.sum) / sim.Duration(count-prev.count)
			tier := sh.tiers[dom]
			budget := gstate.DefaultSLA(tier).P99Budget
			sh.meter.Observe(dom, tier, mean > budget, now)
		}
		sh.p.Kernel.After(slaSampleEvery, tick)
	}
	sh.p.Kernel.After(slaSampleEvery, tick)
}

// slaPoint is one (system, mix) outcome: the shadow meter always, the
// controller's own meter when the gstate policy ran.
type slaPoint struct {
	shadow *gstate.Meter
	ctrl   *gstate.Meter
}

// slaSystems orders the compared configurations.
var slaSystems = []struct {
	label  string
	sys    iorchestra.System
	gstate bool
}{
	{"Baseline", iorchestra.SystemBaseline, false},
	{"IOrchestra", iorchestra.SystemIOrchestra, false},
	{"IOrchestra+gstate", iorchestra.SystemIOrchestra, true},
}

// runSLAPoint runs one tiered scenario. rogueBronze adds the chaos
// composition's uncooperative bronze guest.
func runSLAPoint(sysIdx int, seed uint64, mix slaMix, rogueBronze bool, dur sim.Duration, label string) slaPoint {
	cfg := slaSystems[sysIdx]
	pol := iorchestra.Policies{Flush: true, Congestion: true, GState: cfg.gstate}
	// Host dispatch concurrency is bounded well below the population's
	// outstanding I/O so the weighted cgroup — the actuation surface the
	// G-state controller drives — is where requests queue; with the
	// default bound the device's internal FIFO absorbs the backlog and
	// no per-class differentiation is possible on any system.
	p := tracedPlatform(cfg.sys, seed, iorchestra.WithPolicies(pol),
		iorchestra.WithHostConfig(hypervisor.Config{MaxDeviceInFlight: 8}))
	sh := newSLAShadow(p)
	i := 0
	populate := func(n int, tier gstate.Tier) {
		for j := 0; j < n; j++ {
			sh.watch(slaVM(p, i, tier), tier)
			i++
		}
	}
	populate(mix.gold, gstate.Gold)
	populate(mix.silver, gstate.Silver)
	populate(mix.bronze, gstate.Bronze)
	if rogueBronze {
		// The uncooperative guest: created and declared bronze, but never
		// enabled — no store driver registers, no controller attaches,
		// nothing can actuate it. Its streams still pound the device.
		rt := p.Host.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 2 << 30}, workload.CongestProneDisk())
		gstate.PublishSLA(p.Host.Store(), rt.G.ID(), gstate.Bronze, gstate.SLA{})
		ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 8, 1<<30, 1<<20,
			p.Rng.Fork("rogue"))
		ms.Start()
	}
	sh.start()
	p.RunFor(dur)

	pt := slaPoint{shadow: sh.meter}
	pt.shadow.CloseAll(p.Kernel.Now())
	if p.Manager != nil {
		if me := p.Manager.GStateMeter(); me != nil {
			me.CloseAll(p.Kernel.Now())
			pt.ctrl = me
		}
	}
	dumpTrace(label, p)
	return pt
}

// RunSLA sweeps tier mixes across the three configurations and runs the
// chaos composition, reporting per-tier violation budgets.
func RunSLA(scale Scale, seed uint64) *Result {
	dur := scale.pick(6*sim.Second, 30*sim.Second)
	g := sweep(seed, 1, func(seed uint64, c []int) slaPoint {
		mix, si := slaMixes[c[0]], c[1]
		return runSLAPoint(si, seed, mix, false, dur,
			fmt.Sprintf("sla-%s-%s-seed%d", mix, slaSystems[si].label, seed))
	}, len(slaMixes), len(slaSystems))
	// Chaos composition: balanced mix under gstate, without and with the rogue.
	chaosRuns := []string{"clean", "rogue"}
	chaos := sweep(seed, 1, func(seed uint64, c []int) slaPoint {
		return runSLAPoint(2, seed, slaMixes[0], c[0] == 1, dur,
			fmt.Sprintf("sla-chaos-%s-seed%d", chaosRuns[c[0]], seed))
	}, len(chaosRuns))

	// Tables A and B have one row per (mix, tier), C one per tier; a
	// column reads the meter of its row's mix at its row's tier.
	tiers := gstate.Tiers()
	var byMix, byTier []string
	for _, tier := range tiers {
		byTier = append(byTier, string(tier))
	}
	for _, mix := range slaMixes {
		for _, tier := range byTier {
			byMix = append(byMix, mix.String()+"\t"+tier)
		}
	}
	col := func(p *Panel, label, format string, meter func(mi int) *gstate.Meter,
		y func(*gstate.Meter, gstate.Tier) float64) {
		p.add(label, format, func(i int) float64 { return y(meter(i/len(tiers)), tiers[i%len(tiers)]) })
	}
	episodes := func(me *gstate.Meter, t gstate.Tier) float64 { return float64(me.Violations(t)) }
	seconds := (*gstate.Meter).ViolationSeconds

	ta := Panel{Title: "SLA A: tier-mix sweep, shadow violation-seconds per tier (latency law, identical across systems)",
		XName: "mix\ttier", XText: byMix}
	for si, sys := range slaSystems {
		col(&ta, sys.label, "%.2f", func(mi int) *gstate.Meter { return g.one(mi, si).shadow }, seconds)
	}
	ctrl := func(mi int) *gstate.Meter { return g.one(mi, 2).ctrl }
	tb := Panel{Title: "SLA B: G-state controller meter per tier (both violation laws)",
		XName: "mix\ttier", XText: byMix}
	col(&tb, "violations", "%.0f", ctrl, episodes)
	col(&tb, "violation-s", "%.2f", ctrl, seconds)
	tc := Panel{Title: "SLA C: chaos composition — uncooperative bronze guest vs gold budget (controller meter)",
		XName: "tier", XText: byTier}
	for ci, name := range chaosRuns {
		me := func(int) *gstate.Meter { return chaos.one(ci).ctrl }
		col(&tc, name+" violations", "%.0f", me, episodes)
		col(&tc, name+" viol-s", "%.2f", me, seconds)
	}
	return &Result{Panels: []Panel{ta, tb, tc}}
}

func init() {
	register(Runner{
		ID:       "sla",
		Describe: "tiered-SLA sweep: per-tier violation budgets, Baseline vs IOrchestra vs +gstate, plus the rogue-bronze chaos composition",
		Run:      RunSLA,
	})
}
