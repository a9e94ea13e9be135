package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/blkio"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// RunFig9 reproduces the congestion-control experiment (Sec. 5.4):
// 2–20 single-VCPU/1 GB VMs run FS, WS or VS; only the congestion policy
// is enabled; the figure reports per-op latency normalized to baseline.
// FS issues many small mixed requests and falsely triggers avoidance at
// low VM counts (≈0.90); all curves approach 1.0 as the device becomes
// genuinely congested.
func RunFig9(scale Scale, seed uint64) *Result {
	vmCounts := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	if scale == Quick {
		vmCounts = []float64{2, 6, 10, 14, 20}
	}
	dur := scale.pick(20*sim.Second, 90*sim.Second)
	kinds := []string{"FS", "WS", "VS"}
	g := sweep(seed, 2, func(seed uint64, c []int) float64 {
		return runFig9Point(c[2] == 1, seed, kinds[c[0]], int(vmCounts[c[1]]), dur)
	}, len(kinds), len(vmCounts), 2)

	p := Panel{Title: "Fig 9: latency normalized to baseline (congestion policy only)", XName: "VMs", X: vmCounts}
	for ki, kind := range kinds {
		p.add(kind, "%.3f", func(vi int) float64 { return meanOf(g.at(ki, vi, 1)) / meanOf(g.at(ki, vi, 0)) })
	}
	return &Result{Panels: []Panel{p}}
}

// runFig9Point returns the mean op latency (seconds) of the workload.
func runFig9Point(iorch bool, seed uint64, kind string, vms int, dur sim.Duration) float64 {
	sys := iorchestra.SystemBaseline
	if iorch {
		sys = iorchestra.SystemIOrchestra
	}
	p := tracedPlatform(sys, seed,
		iorchestra.WithPolicies(iorchestra.Policies{Congestion: true}))
	var pers []workload.Personality
	for i := 0; i < vms; i++ {
		rt := p.NewVM(1, 1, guest.DiskConfig{
			Name: "xvda",
			// A small virtio ring: bursts of small mixed requests cross
			// the 7/8 threshold well before the shared array is busy.
			QueueConfig: blkio.Config{Limit: 48, DispatchWindow: 16},
			MaxTransfer: 64 << 10,
		})
		rng := p.Rng.Fork(fmt.Sprintf("wl%d", i))
		var per workload.Personality
		switch kind {
		case "FS":
			per = workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
				Threads: 4, MeanFileSize: 256 << 10, Think: 2 * sim.Millisecond,
				BurstOn: sim.Second, BurstOff: 2 * sim.Second,
			}, rng)
		case "WS":
			per = workload.NewWS(p.Kernel, rt.G, rt.G.Disks()[0], workload.WSConfig{
				Threads: 4, Think: 2 * sim.Millisecond,
			}, rng)
		default:
			per = workload.NewVS(p.Kernel, rt.G, rt.G.Disks()[0], workload.VSConfig{
				Readers: 2, VideoSize: 32 << 20, AddInterval: 5 * sim.Second,
			}, rng)
		}
		pers = append(pers, per)
	}
	for _, per := range pers {
		per.Start()
	}
	p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("fig9-%s-%s-vms%d-seed%d", sys, kind, vms, seed), p)
	var sum float64
	var n float64
	for _, per := range pers {
		h := per.Ops().Latency
		sum += h.Mean().Seconds() * float64(h.Count())
		n += float64(h.Count())
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func init() {
	register(Runner{
		ID:       "fig9",
		Describe: "FS/WS/VS normalized latency vs VM count (congestion policy)",
		Run:      RunFig9,
	})
}
