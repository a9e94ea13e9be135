package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/apps"
	"iorchestra/internal/core"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// RunFig12 reproduces the bursty-write experiment (Sec. 5.6): YCSB1
// against a two-node Cassandra store with skewed inter-arrival times —
// synchronized bursts at 10× the average rate, 50 ms and 100 ms burst
// lengths — across all four systems, reporting p99.9 latency versus the
// average request rate.
func RunFig12(scale Scale, seed uint64) *Result {
	rates := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	if scale == Quick {
		rates = []float64{200, 400, 600, 800, 1000}
	}
	bursts := []sim.Duration{50 * sim.Millisecond, 100 * sim.Millisecond}
	dur := scale.pick(40*sim.Second, 120*sim.Second)
	systems := iorchestra.Systems()
	g := sweep(seed, 2, func(seed uint64, c []int) float64 {
		return runFig12Point(systems[c[2]], seed, rates[c[1]], bursts[c[0]], dur)
	}, len(bursts), len(rates), len(systems))

	res := &Result{}
	for bi, b := range bursts {
		p := Panel{Title: fmt.Sprintf("Fig 12: YCSB1 p99.9 latency (us), %v burst length", b), XName: "req/s", X: rates}
		for si, s := range systems {
			p.add(s.String(), "%.0f", func(ri int) float64 { return meanOf(g.at(bi, ri, si)) })
		}
		// A System's value is its index in iorchestra.Systems().
		base, io := p.Series[iorchestra.SystemBaseline].Y, p.Series[iorchestra.SystemIOrchestra].Y
		var imps []float64
		for ri := range rates {
			imps = append(imps, improvement(base[ri], io[ri]))
		}
		p.Footer = &Footer{"avg impr", meanOf(imps), "%.1f%%"}
		res.Panels = append(res.Panels, p)
	}
	return res
}

// runFig12Point returns YCSB1 p99.9 latency in microseconds under bursty
// arrivals.
func runFig12Point(sys iorchestra.System, seed uint64, rate float64, burst sim.Duration, dur sim.Duration) float64 {
	p := tracedPlatform(sys, seed,
		// Under half-second burst cycles the flush policy must be
		// conservative: sizeable piles only, well spaced, so sync storms
		// never straddle the next burst.
		iorchestra.WithManagerConfig(core.ManagerConfig{
			MinFlushBytes: 24 << 20,
			FlushCooldown: sim.Second,
		}))
	var nodes []*apps.CassandraNode
	for i := 0; i < 2; i++ {
		vm := p.NewVM(2, 4, cassandraDisk())
		nodes = append(nodes, apps.NewCassandraNode(p.Kernel, vm.G, vm.G.Disks()[0],
			apps.CassandraConfig{}, p.Rng.Fork(fmt.Sprintf("node%d", i))))
	}
	cl := apps.NewCassandraCluster(p.Kernel, nodes, p.Rng.Fork("cl"))
	run := workload.NewYCSBBursty(p.Kernel, workload.YCSB1(), cl, rate,
		burst, 500*sim.Millisecond, 0, p.Rng.Fork("gen"))
	run.Gen.Start()
	p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("fig12-%s-rate%g-burst%s-seed%d", sys, rate, burst, seed), p)
	return run.Rec.Latency.Percentile(99.9).Microseconds()
}

func init() {
	register(Runner{
		ID:       "fig12",
		Describe: "Bursty YCSB1 p99.9 latency at 50/100 ms burst lengths, four systems",
		Run:      RunFig12,
	})
}
