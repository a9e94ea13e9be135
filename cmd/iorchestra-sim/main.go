// Command iorchestra-sim runs a single configurable scenario: a
// population of VMs with one workload personality on one of the four
// systems, printing latency and throughput results plus the IOrchestra
// policy activity. It is the "drive the platform by hand" tool; use
// cmd/experiments to regenerate the paper's figures.
//
//	iorchestra-sim -system iorchestra -workload fs -vms 8 -seconds 30
//	iorchestra-sim -system baseline -workload ycsb1 -vms 2 -rate 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"iorchestra"
	"iorchestra/internal/apps"
	"iorchestra/internal/core"
	"iorchestra/internal/gstate"
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// formatCounts renders an injection-counter map as "kind=n" pairs in
// stable order.
func formatCounts(c map[string]uint64) string {
	if len(c) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, " ")
}

// parsePolicies maps a -policies name to the controller subset it
// enables, rejecting unknown names with the full menu.
func parsePolicies(s string) (core.Policies, error) {
	switch s {
	case "all":
		return core.All(), nil
	case "flush":
		return core.Policies{Flush: true}, nil
	case "congestion":
		return core.Policies{Congestion: true}, nil
	case "cosched":
		return core.Policies{Cosched: true}, nil
	case "gstate":
		return core.Policies{GState: true}, nil
	}
	return core.Policies{}, fmt.Errorf("bad -policies %q: want flush|congestion|cosched|gstate|all", s)
}

func main() {
	system := flag.String("system", "iorchestra", "baseline | sdc | dif | iorchestra")
	wl := flag.String("workload", "fs", "fs | burstyfs | ws | vs | multistream | ycsb1 | ycsb2 | blast | cloud9")
	vms := flag.Int("vms", 4, "number of VMs")
	vcpus := flag.Int("vcpus", 2, "VCPUs (and GB of memory) per VM")
	seconds := flag.Int("seconds", 30, "virtual seconds to simulate")
	rate := flag.Float64("rate", 2000, "request rate for ycsb workloads (req/s)")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	traceOut := flag.String("trace", "", "write an NDJSON decision trace to this file (see cmd/iorchestra-trace)")
	faults := flag.String("faults", "", "fault-injection spec, e.g. uncoop=0.5,crash=0.25@2s+3s,stucksync=0.5 (see docs/FAULTS.md)")
	policies := flag.String("policies", "", "policy subset for -system iorchestra: flush | congestion | cosched | gstate | all (empty = the paper's three)")
	flag.Parse()

	var sys iorchestra.System
	switch strings.ToLower(*system) {
	case "baseline":
		sys = iorchestra.SystemBaseline
	case "sdc":
		sys = iorchestra.SystemSDC
	case "dif":
		sys = iorchestra.SystemDIF
	case "iorchestra":
		sys = iorchestra.SystemIOrchestra
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(1)
	}

	var popts []iorchestra.Option
	gstateOn := false
	if *policies != "" {
		pol, err := parsePolicies(*policies)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gstateOn = pol.GState
		popts = append(popts, iorchestra.WithPolicies(pol))
	}
	if *traceOut != "" {
		popts = append(popts, iorchestra.WithTracing(0))
	}
	if *faults != "" {
		spec, err := iorchestra.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		popts = append(popts, iorchestra.WithFaults(spec))
	}
	p := iorchestra.NewPlatform(sys, *seed, popts...)
	dur := sim.Duration(*seconds) * iorchestra.Second

	type resultFn func() (*metrics.Histogram, float64) // latency, bytes
	var results []resultFn

	// Under -policies gstate each VM declares an SLA tier round-robin
	// (gold, silver, bronze, ...); NewTieredVM publishes the declaration
	// before the controllers attach, so admission control sees it.
	vmIndex := 0
	makeVM := func(disk guest.DiskConfig) *iorchestra.VM {
		i := vmIndex
		vmIndex++
		if gstateOn {
			tier := []gstate.Tier{gstate.Gold, gstate.Silver, gstate.Bronze}[i%3]
			return p.NewTieredVM(tier, gstate.SLA{}, *vcpus, *vcpus, disk)
		}
		return p.NewVM(*vcpus, *vcpus, disk)
	}

	newVM := func() *iorchestra.VM {
		return makeVM(guest.DiskConfig{
			Name: "xvda",
			CacheConfig: pagecache.Config{
				TotalPages: (1 << 30) / pagecache.PageSize,
			},
		})
	}

	// burstyfs is the Fig. 8-style flush-prone profile: buffered write
	// bursts against a small dirty budget, leaving idle windows where
	// Algorithm 1 can act. The scenario that exercises flush orders (and,
	// with -faults, the flush-deadline machinery — docs/FAULTS.md).
	newBurstyVM := func(i int) workload.Personality {
		vm := makeVM(guest.DiskConfig{
			Name: "xvda",
			CacheConfig: pagecache.Config{
				TotalPages:      (1 << 30) / pagecache.PageSize,
				DirtyRatio:      0.2,
				BackgroundRatio: 0.1,
				WritebackWindow: 64,
			},
		})
		return workload.NewFS(p.Kernel, vm.G, vm.G.Disks()[0], workload.FSConfig{
			Threads: *vcpus, MeanFileSize: 1 << 20, Think: 6 * sim.Millisecond,
			WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
			BurstOn: 1500 * sim.Millisecond, BurstOff: 3500 * sim.Millisecond,
		}, p.Rng.Fork(fmt.Sprintf("wl%d", i)))
	}

	switch strings.ToLower(*wl) {
	case "fs", "burstyfs", "ws", "vs", "multistream":
		for i := 0; i < *vms; i++ {
			var per workload.Personality
			if strings.ToLower(*wl) == "burstyfs" {
				per = newBurstyVM(i)
				per.Start()
				per2 := per
				results = append(results, func() (*metrics.Histogram, float64) {
					return per2.Ops().Latency, 0
				})
				continue
			}
			vm := newVM()
			rng := p.Rng.Fork(fmt.Sprintf("wl%d", i))
			switch strings.ToLower(*wl) {
			case "fs":
				per = workload.NewFS(p.Kernel, vm.G, vm.G.Disks()[0], workload.FSConfig{Threads: *vcpus}, rng)
			case "ws":
				per = workload.NewWS(p.Kernel, vm.G, vm.G.Disks()[0], workload.WSConfig{Threads: *vcpus}, rng)
			case "vs":
				per = workload.NewVS(p.Kernel, vm.G, vm.G.Disks()[0], workload.VSConfig{Readers: *vcpus}, rng)
			default:
				per = workload.NewMultiStream(p.Kernel, vm.G, vm.G.Disks()[0], *vcpus, 1<<30, 1<<20, rng)
			}
			per.Start()
			per2 := per
			results = append(results, func() (*metrics.Histogram, float64) {
				return per2.Ops().Latency, 0
			})
		}
	case "ycsb1", "ycsb2":
		cfg := workload.YCSB1()
		if strings.ToLower(*wl) == "ycsb2" {
			cfg = workload.YCSB2()
		}
		var nodes []*apps.CassandraNode
		for i := 0; i < *vms; i++ {
			vm := newVM()
			nodes = append(nodes, apps.NewCassandraNode(p.Kernel, vm.G, vm.G.Disks()[0],
				apps.CassandraConfig{}, p.Rng.Fork(fmt.Sprintf("node%d", i))))
		}
		cl := apps.NewCassandraCluster(p.Kernel, nodes, p.Rng.Fork("cl"))
		run := workload.NewYCSBOpenLoop(p.Kernel, cfg, cl, *rate, 0, p.Rng.Fork("gen"))
		run.Gen.Start()
		results = append(results, func() (*metrics.Histogram, float64) {
			return run.Rec.Latency, 0
		})
	case "blast":
		var gs []*guest.Guest
		for i := 0; i < *vms; i++ {
			gs = append(gs, newVM().G)
		}
		job := apps.NewBlastJob(p.Kernel, gs, int64(*vms)*2<<30, true, p.Rng.Fork("blast"))
		job.Start()
		results = append(results, func() (*metrics.Histogram, float64) {
			return job.ChunkLatency(), 0
		})
	case "cloud9":
		for i := 0; i < *vms; i++ {
			vm := newVM()
			cb := workload.NewCPUBound(p.Kernel, vm.G, p.Rng.Fork(fmt.Sprintf("c9-%d", i)))
			cb.Start()
			cb2 := cb
			results = append(results, func() (*metrics.Histogram, float64) {
				return cb2.Ops().Latency, 0
			})
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(1)
	}

	fmt.Printf("system=%v workload=%s vms=%d vcpus=%d duration=%ds seed=%d\n",
		sys, *wl, *vms, *vcpus, *seconds, *seed)
	p.RunFor(dur)

	merged := metrics.NewHistogram()
	for _, fn := range results {
		h, _ := fn()
		merged.Merge(h)
	}
	fmt.Printf("ops=%d\n", merged.Count())
	fmt.Printf("latency: mean=%v p50=%v p99=%v p99.9=%v max=%v\n",
		merged.Mean(), merged.Percentile(50), merged.Percentile(99),
		merged.Percentile(99.9), merged.Max())
	dev := p.Host.Device()
	fmt.Printf("device: bw=%.1f MB/s busy=%.0f%%\n",
		dev.BandwidthBps(p.Kernel.Now())/1e6, dev.UtilFraction(p.Kernel.Now())*100)
	fmt.Printf("host CPU utilization: %.0f%%\n", p.Host.CPUUtilization(p.Kernel.Now())*100)
	if p.Manager != nil {
		c := p.Manager.Counters()
		fmt.Printf("iorchestra: %d flush notices, %d vetoes, %d confirms, %d relieves, %d cosched runs\n",
			c.FlushNotices, c.Vetoes, c.Confirms, c.Relieves, c.CoschedRuns)
		fmt.Printf("degradation: %d heartbeat misses, %d flush timeouts, %d release retries, %d release timeouts, %d hold timeouts, %d fallbacks, %d restores\n",
			c.HeartbeatMisses, c.FlushTimeouts, c.ReleaseRetries, c.ReleaseTimeouts,
			c.HoldTimeouts, c.Fallbacks, c.Restores)
		if gstateOn {
			fmt.Printf("gstate: %d demotions, %d promotions, %d sla violations, %d admissions, %d deferrals\n",
				c.GStateDemotes, c.GStatePromotes, c.SLAViolations, c.GStateAdmits, c.GStateDefers)
		}
	}
	r, w, n := p.Host.Store().Stats()
	fmt.Printf("system store: %d reads, %d writes, %d notifications\n", r, w, n)
	if p.Faults != nil {
		fmt.Printf("faults injected: %d total (%s)\n", p.Faults.Total(), formatCounts(p.Faults.Counts()))
		dw, dn, dl := p.Host.Store().FaultStats()
		fmt.Printf("store faults: %d dropped writes, %d dropped notifies, %d delayed notifies\n", dw, dn, dl)
	}

	if *traceOut != "" && p.Trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := p.Trace.WriteNDJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events recorded (%d retained, %d evicted) -> %s\n",
			p.Trace.Recorded(), len(p.Trace.Events()), p.Trace.Dropped(), *traceOut)
		fmt.Print(trace.Summarize(p.Trace.Events()).Format())
	}
}
