package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/core"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// RunAblations exercises the design choices DESIGN.md §5 calls out:
// store-notification latency, the flush trigger threshold, the congestion
// release stagger, and the co-scheduling update cadence. Each ablation
// reruns a small representative scenario with one knob swept.
func RunAblations(scale Scale, seed uint64) *Result {
	return &Result{Panels: []Panel{
		ablateStoreLatency(scale, seed),
		ablateFlushThreshold(scale, seed),
		ablateReleaseStagger(scale, seed),
		ablateCoschedCadence(scale, seed),
	}}
}

// ablate sweeps one knob over xs (printed as xtext) and tabulates the
// scenario's one outcome per setting.
func ablate(title, xName, yName, format string, xs []float64, xtext []string, seed uint64,
	point func(seed uint64, i int) float64) Panel {
	g := sweep(seed, 1, func(seed uint64, c []int) float64 { return point(seed, c[0]) }, len(xs))
	p := Panel{Title: title, XName: xName, X: xs, XText: xtext}
	p.add(yName, format, func(i int) float64 { return g.one(i) })
	return p
}

// durationAxis is a knob swept over durations: seconds as X, the
// duration's own rendering as the printed tick.
func durationAxis(ds []sim.Duration) (xs []float64, xtext []string) {
	for _, d := range ds {
		xs = append(xs, d.Seconds())
		xtext = append(xtext, d.String())
	}
	return xs, xtext
}

// ablateStoreLatency sweeps the watch-notification latency: how slow may
// the control channel get before the collaborative veto stops paying off?
func ablateStoreLatency(scale Scale, seed uint64) Panel {
	dur := scale.pick(6*sim.Second, 20*sim.Second)
	latencies := []sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond,
		sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}
	xs, xtext := durationAxis(latencies)
	const title = "Ablation: store notification latency vs read p99.9 (congestion policy)"
	return ablate(title, "notify latency", "p99.9 (ms)", "%.2f", xs, xtext, seed, func(seed uint64, i int) float64 {
		p := tracedPlatform(iorchestra.SystemIOrchestra, seed,
			iorchestra.WithPolicies(iorchestra.Policies{Congestion: true}),
			iorchestra.WithHostConfig(hypervisor.Config{StoreLatency: latencies[i]}))
		vm := p.NewVM(4, 4, workload.CongestProneDisk())
		ms := workload.NewMultiStream(p.Kernel, vm.G, vm.G.Disks()[0], 8, 1<<30, 1<<20,
			p.Rng.Fork("ms"))
		ms.Start()
		p.Kernel.RunUntil(dur)
		dumpTrace(fmt.Sprintf("ablate-storelat-%s-seed%d", latencies[i], seed), p)
		return ms.Ops().Latency.Percentile(99.9).Milliseconds()
	})
}

// ablateFlushThreshold sweeps Algorithm 1's "one tenth of capacity"
// trigger and reports FS write throughput at the Fig. 8 sweet spot.
func ablateFlushThreshold(scale Scale, seed uint64) Panel {
	dur := scale.pick(20*sim.Second, 60*sim.Second)
	fracs := []float64{0.02, 0.05, 0.10, 0.25, 0.50}
	xtext := make([]string, len(fracs))
	for i, f := range fracs {
		xtext[i] = fmt.Sprintf("%.2f", f)
	}
	const title = "Ablation: flush trigger threshold (fraction of device capacity)"
	return ablate(title, "threshold", "write MB/s", "%.1f", fracs, xtext, seed, func(seed uint64, i int) float64 {
		p := tracedPlatform(iorchestra.SystemIOrchestra, seed,
			iorchestra.WithPolicies(iorchestra.Policies{Flush: true}),
			iorchestra.WithManagerConfig(core.ManagerConfig{FlushUtilFrac: fracs[i]}))
		var gens []*workload.FS
		for j := 0; j < 10; j++ {
			rt := p.NewVM(1, 1, workload.FlushProneDisk(0.2))
			fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FlushProneFS(2),
				p.Rng.Fork(fmt.Sprintf("fs%d", j)))
			fs.Start()
			gens = append(gens, fs)
		}
		p.Kernel.RunUntil(dur)
		dumpTrace(fmt.Sprintf("ablate-flushfrac-%g-seed%d", fracs[i], seed), p)
		var total float64
		for _, g := range gens {
			total += g.WrittenBytes()
		}
		return total / dur.Seconds() / 1e6
	})
}

// ablateReleaseStagger compares the paper's 0–99 ms FIFO wake-up stagger
// against no stagger (thundering herd) and a wider window, using the
// genuinely-congested relief scenario.
func ablateReleaseStagger(scale Scale, seed uint64) Panel {
	dur := scale.pick(10*sim.Second, 30*sim.Second)
	staggers := []sim.Duration{sim.Microsecond, 99 * sim.Millisecond, 500 * sim.Millisecond}
	labels := []string{"none (herd)", "0-99 ms (paper)", "0-500 ms"}
	xs, _ := durationAxis(staggers)
	const title = "Ablation: congestion release stagger vs read p99 (4 congested VMs)"
	return ablate(title, "stagger", "p99 (ms)", "%.2f", xs, labels, seed, func(seed uint64, i int) float64 {
		p := tracedPlatform(iorchestra.SystemIOrchestra, seed,
			iorchestra.WithPolicies(iorchestra.Policies{Congestion: true}),
			iorchestra.WithManagerConfig(core.ManagerConfig{ReleaseStaggerMax: staggers[i]}))
		var gens []*workload.MultiStream
		for j := 0; j < 4; j++ {
			vm := p.NewVM(2, 2, workload.CongestProneDisk())
			ms := workload.NewMultiStream(p.Kernel, vm.G, vm.G.Disks()[0], 8, 256<<20, 1<<20,
				p.Rng.Fork(fmt.Sprintf("ms%d", j)))
			ms.Start()
			gens = append(gens, ms)
		}
		p.Kernel.RunUntil(dur)
		dumpTrace(fmt.Sprintf("ablate-stagger-%s-seed%d", staggers[i], seed), p)
		var sum float64
		var n float64
		for _, g := range gens {
			h := g.Ops().Latency
			sum += h.Percentile(99).Milliseconds() * float64(h.Count())
			n += float64(h.Count())
		}
		return sum / n
	})
}

// ablateCoschedCadence sweeps the weight-update interval (the paper uses
// 1 s or a >50 % latency-ratio change) on the Fig. 10(a) scenario.
func ablateCoschedCadence(scale Scale, seed uint64) Panel {
	dur := scale.pick(15*sim.Second, 45*sim.Second)
	intervals := []sim.Duration{250 * sim.Millisecond, sim.Second, 4 * sim.Second, 16 * sim.Second}
	xs, xtext := durationAxis(intervals)
	const title = "Ablation: co-scheduling update cadence vs stream throughput (MB/s)"
	return ablate(title, "interval", "MB/s", "%.0f", xs, xtext, seed, func(seed uint64, i int) float64 {
		p := tracedPlatform(iorchestra.SystemIOrchestra, seed,
			iorchestra.WithPolicies(iorchestra.Policies{Cosched: true}),
			iorchestra.WithManagerConfig(core.ManagerConfig{CoschedInterval: intervals[i]}),
			iorchestra.WithHostConfig(hypervisor.Config{Sockets: 2, CoresPerSocket: 6,
				IOCoreCostPerReq: 10 * sim.Microsecond, IOCoreBps: 2e9}))
		rt := p.NewVM(10, 10, guest.DiskConfig{Name: "xvda", MaxTransfer: 256 << 10})
		ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 4, 256<<20, 1<<20,
			p.Rng.Fork("ms"))
		cb := workload.NewCPUBound(p.Kernel, rt.G, p.Rng.Fork("c9"))
		cb.Threads = 6
		ms.Start()
		cb.Start()
		p.Kernel.RunUntil(dur)
		dumpTrace(fmt.Sprintf("ablate-cosched-%s-seed%d", intervals[i], seed), p)
		return float64(ms.Ops().Completed()) / dur.Seconds()
	})
}

func init() {
	register(Runner{
		ID:       "ablation",
		Describe: "Design-choice ablations: store latency, flush threshold, release stagger, cosched cadence",
		Run:      RunAblations,
	})
}
