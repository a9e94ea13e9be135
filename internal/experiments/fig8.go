package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// RunFig8 reproduces the dirty-page flushing experiment (Sec. 5.3):
// 2–20 single-VCPU/1 GB VMs run the FileBench fileserver with working
// sets larger than twice their memory, at dirty ratios of 10–40 %. Only
// the flush policy is enabled; the figure reports write-throughput
// improvement over the baseline.
func RunFig8(scale Scale, seed uint64) *Result {
	vmCounts := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	ratios := []float64{0.10, 0.20, 0.30, 0.40}
	if scale == Quick {
		vmCounts = []float64{2, 8, 14, 20}
	}
	dur := scale.pick(60*sim.Second, 240*sim.Second)
	g := sweep(seed, 3, func(seed uint64, c []int) float64 {
		return runFig8Point(c[2] == 1, seed, int(vmCounts[c[0]]), ratios[c[1]], dur)
	}, len(vmCounts), len(ratios), 2)

	p := Panel{Title: "Fig 8: FS write-throughput improvement (flush policy only)", XName: "VMs", X: vmCounts}
	for ri, r := range ratios {
		p.add(fmt.Sprintf("%.0f%%", r*100), "%.1f%%",
			func(vi int) float64 { return gain(meanOf(g.at(vi, ri, 0)), meanOf(g.at(vi, ri, 1))) })
	}
	var all []float64
	for vi := range vmCounts {
		for _, s := range p.Series {
			all = append(all, s.Y[vi])
		}
	}
	p.Footer = &Footer{"mean", meanOf(all), "%.1f%%"}
	return &Result{Panels: []Panel{p}}
}

// runFig8Point returns aggregate FS write throughput (bytes accepted per
// second of virtual time).
func runFig8Point(iorch bool, seed uint64, vms int, dirtyRatio float64, dur sim.Duration) float64 {
	sys := iorchestra.SystemBaseline
	if iorch {
		sys = iorchestra.SystemIOrchestra
	}
	p := tracedPlatform(sys, seed,
		iorchestra.WithPolicies(iorchestra.Policies{Flush: true}))
	var gens []*workload.FS
	for i := 0; i < vms; i++ {
		rt := p.NewVM(1, 1, workload.FlushProneDisk(dirtyRatio))
		fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FlushProneFS(2),
			p.Rng.Fork(fmt.Sprintf("fs%d", i)))
		gens = append(gens, fs)
	}
	for _, g := range gens {
		g.Start()
	}
	p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("fig8-%s-vms%d-dirty%.0f-seed%d", sys, vms, dirtyRatio*100, seed), p)
	var total float64
	for _, g := range gens {
		total += g.WrittenBytes()
	}
	return total / dur.Seconds()
}

func init() {
	register(Runner{
		ID:       "fig8",
		Describe: "FS write-throughput improvement vs VM count and dirty ratio (flush policy)",
		Run:      RunFig8,
	})
}
