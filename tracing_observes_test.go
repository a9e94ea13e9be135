package iorchestra

// Tracing only observes: turning the decision-trace recorder on must not
// change a single decision, measurement or completion. Every policy
// input is fed by an always-on path (the dispatch tracer, the store,
// the Monitor); the recorder is where decisions are counted, and a
// count-only one stands in when nobody is tracing.

import (
	"fmt"
	"testing"

	"iorchestra/internal/core"
	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
)

// observed is everything a run is judged by that tracing could have
// perturbed: the manager's decisions, the SLA meter's accruals, the
// store's traffic and each guest's completed block requests.
type observed struct {
	counters   core.Counters
	violations map[gstate.Tier]uint64
	violSecs   map[gstate.Tier]float64
	storeStats [3]uint64
	completed  []uint64
}

func observe(p *Platform) observed {
	o := observed{
		violations: map[gstate.Tier]uint64{},
		violSecs:   map[gstate.Tier]float64{},
	}
	if p.Manager != nil {
		o.counters = p.Manager.Counters()
		if me := p.Manager.GStateMeter(); me != nil {
			me.CloseAll(p.Kernel.Now())
			for _, tier := range []gstate.Tier{gstate.Gold, gstate.Silver, gstate.Bronze} {
				o.violations[tier] = me.Violations(tier)
				o.violSecs[tier] = me.ViolationSeconds(tier)
			}
		}
	}
	r, w, n := p.Host.Store().Stats()
	o.storeStats = [3]uint64{r, w, n}
	for _, rt := range p.Host.Guests() {
		for _, d := range rt.G.Disks() {
			o.completed = append(o.completed, d.Queue.Completed())
		}
	}
	return o
}

func TestTracingOnlyObserves(t *testing.T) {
	faults, err := ParseFaultSpec(goldenFaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	mixed := func(p *Platform) {
		flushProneVM(p, 0)
		flushProneVM(p, 1)
		congestProneVM(p, 2)
		congestProneVM(p, 3)
	}
	for _, row := range []struct {
		name     string
		sys      System
		opts     []Option
		dur      Duration
		populate func(*Platform)
	}{
		{"all-policies", SystemIOrchestra, nil, goldenMixedDur, mixed},
		{"gstate-tiered", SystemIOrchestra, []Option{
			WithPolicies(Policies{Flush: true, Congestion: true, GState: true}),
			WithHostConfig(hypervisor.Config{MaxDeviceInFlight: 8}),
		}, goldenGStateDur, func(p *Platform) {
			for i, tier := range []gstate.Tier{
				gstate.Gold, gstate.Gold, gstate.Silver, gstate.Silver, gstate.Bronze, gstate.Bronze,
			} {
				tieredGoldenVM(p, i, tier)
			}
		}},
		{"faults", SystemIOrchestra, []Option{WithFaults(faults)}, goldenFlushDur, func(p *Platform) {
			flushProneVM(p, 0)
			flushProneVM(p, 1)
			flushProneVM(p, 2)
		}},
		{"baseline", SystemBaseline, nil, goldenMixedDur, mixed},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(opts ...Option) *Platform {
				p := NewPlatform(row.sys, goldenSeed, append(opts, row.opts...)...)
				row.populate(p)
				p.RunFor(row.dur)
				return p
			}
			plain, traced := run(), run(WithTracing(0))
			if plain.Trace != nil || traced.Trace == nil {
				t.Fatalf("Platform.Trace: untraced %v, traced %v; want nil and non-nil", plain.Trace, traced.Trace)
			}
			if traced.Manager != nil {
				assertCountersMirrorTrace(t, traced)
			}
			got, want := fmt.Sprintf("%+v", observe(plain)), fmt.Sprintf("%+v", observe(traced))
			if got != want {
				t.Fatalf("tracing changed the run\nuntraced: %s\n  traced: %s", got, want)
			}
		})
	}
}
