// Command quickstart is the minimal IOrchestra demonstration: the paper's
// Sec. 2 motivation test. Two VMs each run eight concurrent sequential
// readers; Linux's congestion-avoidance scheme falsely triggers on the
// guests' request queues even though the shared array is not saturated.
// The demo runs the stock baseline, the avoidance-disabled configuration,
// and IOrchestra's collaborative congestion control, and prints the
// resulting read latencies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/blkio"
	"iorchestra/internal/workload"
)

func main() {
	fmt.Println("IOrchestra quickstart — Sec. 2 motivation test")
	fmt.Println("two VMs x eight 1-GiB streams on a shared RAID0 array, 10 s")
	fmt.Println()

	type variant struct {
		name       string
		sys        iorchestra.System
		controller blkio.CongestionController
	}
	variants := []variant{
		{"baseline (avoidance on)", iorchestra.SystemBaseline, nil},
		{"avoidance disabled", iorchestra.SystemBaseline, blkio.NeverController{}},
		{"IOrchestra (collaborative)", iorchestra.SystemIOrchestra, nil},
	}

	for _, v := range variants {
		p := iorchestra.NewPlatform(v.sys, 42,
			iorchestra.WithPolicies(iorchestra.Policies{Congestion: true}))
		var gens []*workload.MultiStream
		for i := 0; i < 2; i++ {
			dc := workload.CongestProneDisk()
			if v.controller != nil {
				dc.QueueConfig.Controller = v.controller
			}
			vm := p.NewVM(4, 4, dc)
			ms := workload.NewMultiStream(p.Kernel, vm.G, vm.G.Disks()[0],
				8, 1<<30, 1<<20, p.Rng.Fork(fmt.Sprintf("ms%d", i)))
			ms.Start()
			gens = append(gens, ms)
		}
		p.RunFor(10 * iorchestra.Second)

		var reads uint64
		var meanSum float64
		var p999 float64
		for _, g := range gens {
			h := g.Ops().Latency
			reads += h.Count()
			meanSum += h.Mean().Milliseconds() * float64(h.Count())
			if v := h.Percentile(99.9).Milliseconds(); v > p999 {
				p999 = v
			}
		}
		fmt.Printf("%-28s mean %6.2f ms   p99.9 %7.2f ms   (%d reads)\n",
			v.name, meanSum/float64(reads), p999, reads)
	}

	fmt.Println()
	fmt.Println("Falsely triggered congestion avoidance inflates the tail by an")
	fmt.Println("order of magnitude; IOrchestra's host-informed veto (Algorithm 2)")
	fmt.Println("recovers the avoidance-off behaviour without giving up the")
	fmt.Println("protection when the host really is congested.")
}
