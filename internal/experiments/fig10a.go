package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/workload"
)

// RunFig10a reproduces the co-scheduling microbenchmark (Sec. 5.5): one
// big VM (10 VCPUs / 10 GB) spans both sockets; Cloud9 threads and
// multi-stream readers share it at I/O-thread ratios of 20–80 %. The
// baseline is the dedicated-core platform without IOrchestra's process
// redistribution (processes stay where the guest scheduler put them); the
// comparison reports I/O throughput improvement.
func RunFig10a(scale Scale, seed uint64) *Result {
	ratios := []float64{0.2, 0.4, 0.6, 0.8}
	dur := scale.pick(20*sim.Second, 60*sim.Second)
	g := sweep(seed, 2, func(seed uint64, c []int) float64 {
		return runFig10aPoint(c[1] == 1, seed, ratios[c[0]], dur)
	}, len(ratios), 2)

	p := Panel{Title: "Fig 10(a): I/O throughput improvement at I/O-thread ratios", XName: "% I/O threads", X: ratios}
	for _, r := range ratios {
		p.XText = append(p.XText, fmt.Sprintf("%.0f", r*100))
	}
	p.add("improvement", "%.1f%%", func(ri int) float64 { return gain(meanOf(g.at(ri, 0)), meanOf(g.at(ri, 1))) })
	return &Result{Panels: []Panel{p}}
}

// runFig10aPoint returns multi-stream read throughput (bytes/sec). Both
// variants run on the identical dedicated-core platform; the baseline
// simply has the guest excluded from co-scheduling, so its I/O processes
// stay where the guest's round-robin scheduler put them.
func runFig10aPoint(cosched bool, seed uint64, ioRatio float64, dur sim.Duration) float64 {
	// A fast array (spec-rate members, a raw volume rather than
	// file-backed images — the single-VM microbenchmark has no
	// nested-filesystem interleaving) makes the polling cores the
	// contended resource, as in the paper's dedicated-core setting.
	specArray := func(k *sim.Kernel, rng *stats.Stream) device.BlockDevice {
		members := make([]device.BlockDevice, 8)
		for i := range members {
			cfg := device.Intel520Config(fmt.Sprintf("ssd%d", i))
			cfg.SeqReadBps = 450e6
			cfg.SeqWriteBps = 230e6
			cfg.RandReadIOPS = 45000
			cfg.InternalParallelism = 4
			members[i] = device.NewSSD(k, cfg, rng.Fork(cfg.Name))
		}
		return device.NewRAID0(k, "md0", members, 256<<10)
	}
	p := tracedPlatform(iorchestra.SystemIOrchestra, seed,
		iorchestra.WithPolicies(iorchestra.Policies{Cosched: true}),
		iorchestra.WithDevice(specArray),
		iorchestra.WithHostConfig(iorchestra.HostConfig{
			Sockets: 2, CoresPerSocket: 6,
			// The polling cores, not the array, must be the contended
			// resource (the paper's imbalance is on the I/O cores).
			IOCoreCostPerReq: 10 * sim.Microsecond,
			IOCoreBps:        3.8e9,
		}))
	rt := p.NewVM(10, 10, guest.DiskConfig{Name: "xvda", MaxTransfer: 256 << 10})
	if !cosched {
		p.Manager.DisableCosched(rt.G.ID())
	}

	nIO := int(ioRatio*10 + 0.5)
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], nIO, 256<<20, 1<<20,
		p.Rng.Fork("ms"))
	cb := workload.NewCPUBound(p.Kernel, rt.G, p.Rng.Fork("c9"))
	cb.Threads = 10 - nIO
	ms.Start()
	if cb.Threads > 0 {
		cb.Start()
	}
	p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("fig10a-cosched%t-io%.0f-seed%d", cosched, ioRatio*100, seed), p)
	return float64(ms.Ops().Completed()) * float64(1<<20) / dur.Seconds()
}

func init() {
	register(Runner{
		ID:       "fig10a",
		Describe: "Big cross-socket VM: I/O throughput improvement from co-scheduling",
		Run:      RunFig10a,
	})
}
