package iorchestra

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Each iteration runs a reduced-scale instance of the
// corresponding experiment scenario and reports the domain metric the
// figure plots via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation's rows at smoke scale. Use
// `go run ./cmd/experiments -run all -full` for report-quality numbers.

import (
	"fmt"
	"testing"

	"iorchestra/internal/apps"
	"iorchestra/internal/blkio"
	"iorchestra/internal/cluster"
	"iorchestra/internal/core"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/workload"
)

// benchSeed keeps benchmark runs deterministic.
const benchSeed = 42

// cassDisk mirrors the experiment harness's data-node disk profile.
func cassDisk() guest.DiskConfig {
	return guest.DiskConfig{
		Name: "xvda",
		CacheConfig: pagecache.Config{
			TotalPages:      (128 << 20) / pagecache.PageSize,
			DirtyRatio:      0.6,
			BackgroundRatio: 0.35,
		},
	}
}

// BenchmarkE0Motivation runs the Sec. 2 motivation test (multi-stream
// reads with congestion avoidance on) and reports the mean read latency.
func BenchmarkE0Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(SystemBaseline, benchSeed)
		vm := p.NewVM(4, 4, guest.DiskConfig{
			Name:        "xvda",
			QueueConfig: blkio.Config{Limit: 68, MaxMerge: 128 << 10},
			MaxTransfer: 64 << 10,
		})
		ms := workload.NewMultiStream(p.Kernel, vm.G, vm.G.Disks()[0], 8, 1<<30, 1<<20, p.Rng.Fork("ms"))
		ms.Start()
		p.RunFor(2 * Second)
		b.ReportMetric(ms.Ops().Latency.Mean().Milliseconds(), "ms/read")
	}
}

// benchYCSBStore builds a two-node Cassandra store on platform p.
func benchYCSBStore(p *Platform) *apps.CassandraCluster {
	var nodes []*apps.CassandraNode
	for i := 0; i < 2; i++ {
		vm := p.NewVM(2, 4, cassDisk())
		nodes = append(nodes, apps.NewCassandraNode(p.Kernel, vm.G, vm.G.Disks()[0],
			apps.CassandraConfig{}, p.Rng.Fork(fmt.Sprintf("n%d", i))))
	}
	return apps.NewCassandraCluster(p.Kernel, nodes, p.Rng.Fork("cl"))
}

// benchFig4 runs a reduced Fig. 4 point (YCSB1+YCSB2 stores, no Olio)
// and reports mean and p99.9 for YCSB1.
func benchFig4(b *testing.B, sys System) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(sys, benchSeed)
		y1 := workload.NewYCSBOpenLoop(p.Kernel, workload.YCSB1(), benchYCSBStore(p), 2000, 0, p.Rng.Fork("y1"))
		y2 := workload.NewYCSBOpenLoop(p.Kernel, workload.YCSB2(), benchYCSBStore(p), 2000, 0, p.Rng.Fork("y2"))
		y1.Gen.Start()
		y2.Gen.Start()
		p.RunFor(5 * Second)
		b.ReportMetric(y1.Rec.Latency.Mean().Microseconds(), "us/y1-mean")
		b.ReportMetric(y1.Rec.Latency.Percentile(99.9).Microseconds(), "us/y1-p999")
		b.ReportMetric(y2.Rec.Latency.Mean().Microseconds(), "us/y2-mean")
	}
}

// BenchmarkFig4Baseline / SDC / DIF / IOrchestra regenerate Fig. 4's
// YCSB panels, one system per benchmark.
func BenchmarkFig4Baseline(b *testing.B)   { benchFig4(b, SystemBaseline) }
func BenchmarkFig4SDC(b *testing.B)        { benchFig4(b, SystemSDC) }
func BenchmarkFig4DIF(b *testing.B)        { benchFig4(b, SystemDIF) }
func BenchmarkFig4IOrchestra(b *testing.B) { benchFig4(b, SystemIOrchestra) }

// BenchmarkFig5CDF regenerates the Fig. 5 latency-distribution comparison
// at the highest intensity and reports the p99 gap.
func BenchmarkFig5CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var p99 [2]float64
		for si, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed)
			y1 := workload.NewYCSBOpenLoop(p.Kernel, workload.YCSB1(), benchYCSBStore(p), 3000, 0, p.Rng.Fork("y1"))
			y1.Gen.Start()
			p.RunFor(5 * Second)
			p99[si] = y1.Rec.Latency.Percentile(99).Microseconds()
		}
		b.ReportMetric(p99[0], "us/baseline-p99")
		b.ReportMetric(p99[1], "us/iorchestra-p99")
	}
}

// BenchmarkFig6Tiers regenerates the per-tier Olio comparison and reports
// mean end-to-end latency under both systems.
func BenchmarkFig6Tiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed)
			web, db, fs := p.NewVM(2, 4), p.NewVM(2, 4), p.NewVM(2, 4)
			olio := apps.NewOlio(p.Kernel, web.G, db.G, fs.G, p.Rng.Fork("olio"))
			gen := workload.NewClosedLoop(p.Kernel, 150, Second, olio.Request, p.Rng.Fork("faban"))
			gen.Start()
			p.RunFor(5 * Second)
			b.ReportMetric(olio.WebLatency().Mean().Milliseconds(), "ms/"+sys.String())
		}
	}
}

// BenchmarkFig7ScaleOut runs the 3-machine scale-out slice and reports
// the mpiBLAST chunk latency.
func BenchmarkFig7ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		p := NewPlatform(SystemIOrchestra, benchSeed)
		_ = k
		var guests []*guest.Guest
		for j := 0; j < 3; j++ {
			vm := p.NewVM(2, 4)
			guests = append(guests, vm.G)
		}
		job := apps.NewBlastJob(p.Kernel, guests, 3<<30, true, p.Rng.Fork("blast"))
		job.Start()
		p.RunFor(5 * Second)
		b.ReportMetric(job.ChunkLatency().Mean().Milliseconds(), "ms/chunk")
	}
}

// BenchmarkFig8Flush runs the flush-policy sweep's densest point (many
// write-bursting VMs) for both systems and reports the throughput gain.
func BenchmarkFig8Flush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rate [2]float64
		for si, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed, WithPolicies(Policies{Flush: true}))
			var gens []*workload.FS
			for j := 0; j < 8; j++ {
				rt := p.NewVM(1, 1, guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
					TotalPages: (1 << 30) / pagecache.PageSize, DirtyRatio: 0.2,
					BackgroundRatio: 0.1, WritebackWindow: 64}})
				fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
					Threads: 2, MeanFileSize: 1 << 20, Think: 6 * Millisecond,
					WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
					BurstOn: 1500 * Millisecond, BurstOff: 3500 * Millisecond,
				}, p.Rng.Fork(fmt.Sprintf("fs%d", j)))
				gens = append(gens, fs)
			}
			for _, g := range gens {
				g.Start()
			}
			p.RunFor(15 * Second)
			var total float64
			for _, g := range gens {
				total += g.WrittenBytes()
			}
			rate[si] = total / 15
		}
		b.ReportMetric(rate[0]/1e6, "MBps/baseline")
		b.ReportMetric(rate[1]/1e6, "MBps/iorchestra")
	}
}

// BenchmarkTable2Arrivals runs a short dynamic-arrival window (λ=16) and
// reports aggregate write throughput for the flush policy.
func BenchmarkTable2Arrivals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(SystemIOrchestra, benchSeed, WithPolicies(Policies{Flush: true}))
		a := cluster.NewArrivals(p.Kernel, p.Host, cluster.ArrivalsConfig{
			Lambda: 16, Duration: 45 * Second,
			YCSBOps: 20000, FSBytes: 512 << 20, Cloud9Bursts: 500,
		}, cluster.VMHooks{OnCreate: func(rt *hypervisor.GuestRuntime) { p.Enable(rt) }},
			p.Rng.Fork("arrivals"))
		a.Start()
		p.RunFor(60 * Second)
		b.ReportMetric(a.WrittenBytes()/1e6/60, "MBps/written")
		b.ReportMetric(float64(a.Completed()), "vms-completed")
	}
}

// BenchmarkFig9Congestion runs the FS congestion point (6 VMs) for both
// systems and reports the normalized latency.
func BenchmarkFig9Congestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var mean [2]float64
		for si, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed, WithPolicies(Policies{Congestion: true}))
			var gens []*workload.FS
			for j := 0; j < 6; j++ {
				rt := p.NewVM(1, 1, guest.DiskConfig{
					Name:        "xvda",
					QueueConfig: blkio.Config{Limit: 48, DispatchWindow: 16},
					MaxTransfer: 64 << 10,
				})
				fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
					Threads: 4, MeanFileSize: 256 << 10, Think: 2 * Millisecond,
					BurstOn: Second, BurstOff: 2 * Second,
				}, p.Rng.Fork(fmt.Sprintf("f%d", j)))
				gens = append(gens, fs)
			}
			for _, g := range gens {
				g.Start()
			}
			p.RunFor(10 * Second)
			var sum, n float64
			for _, g := range gens {
				h := g.Ops().Latency
				sum += h.Mean().Seconds() * float64(h.Count())
				n += float64(h.Count())
			}
			mean[si] = sum / n
		}
		b.ReportMetric(mean[1]/mean[0], "normalized-latency")
	}
}

// BenchmarkFig10aCosched runs the big-VM co-scheduling point at 40 % I/O
// threads and reports throughput with redistribution on.
func BenchmarkFig10aCosched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(SystemIOrchestra, benchSeed,
			WithPolicies(Policies{Cosched: true}),
			WithHostConfig(HostConfig{Sockets: 2, CoresPerSocket: 6,
				IOCoreCostPerReq: 10 * Microsecond, IOCoreBps: 3.8e9}))
		rt := p.NewVM(10, 10, guest.DiskConfig{Name: "xvda", MaxTransfer: 256 << 10})
		ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 4, 256<<20, 1<<20, p.Rng.Fork("ms"))
		cb := workload.NewCPUBound(p.Kernel, rt.G, p.Rng.Fork("c9"))
		cb.Threads = 6
		ms.Start()
		cb.Start()
		p.RunFor(8 * Second)
		b.ReportMetric(float64(ms.Ops().Completed())/8, "MBps/streams")
	}
}

// BenchmarkFig10bCompleted and BenchmarkFig10cUtil reuse the arrival
// engine on the dedicated-core platform.
func BenchmarkFig10bCompleted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(SystemIOrchestra, benchSeed)
		a := cluster.NewArrivals(p.Kernel, p.Host, cluster.ArrivalsConfig{
			Lambda: 12, Duration: 45 * Second,
			YCSBOps: 20000, FSBytes: 512 << 20, Cloud9Bursts: 500,
		}, cluster.VMHooks{OnCreate: func(rt *hypervisor.GuestRuntime) { p.Enable(rt) }},
			p.Rng.Fork("arrivals"))
		a.Start()
		p.RunFor(60 * Second)
		b.ReportMetric(float64(a.Completed()), "vms-completed")
	}
}

// BenchmarkFig10cUtil reports host CPU utilization under the same load.
func BenchmarkFig10cUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed)
			a := cluster.NewArrivals(p.Kernel, p.Host, cluster.ArrivalsConfig{
				Lambda: 12, Duration: 45 * Second,
				YCSBOps: 20000, FSBytes: 512 << 20, Cloud9Bursts: 500,
			}, cluster.VMHooks{OnCreate: func(rt *hypervisor.GuestRuntime) { p.Enable(rt) }},
				p.Rng.Fork("arrivals"))
			a.Start()
			p.RunFor(60 * Second)
			b.ReportMetric(p.Host.CPUUtilization(p.Kernel.Now())*100, "util%/"+sys.String())
		}
	}
}

// BenchmarkFig11Throughput reports aggregate I/O bytes under arrivals
// (the Fig. 11 numerator) on the dedicated-core platform.
func BenchmarkFig11Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewPlatform(SystemIOrchestra, benchSeed)
		a := cluster.NewArrivals(p.Kernel, p.Host, cluster.ArrivalsConfig{
			Lambda: 16, Duration: 45 * Second,
			YCSBOps: 20000, FSBytes: 512 << 20, Cloud9Bursts: 500,
		}, cluster.VMHooks{OnCreate: func(rt *hypervisor.GuestRuntime) { p.Enable(rt) }},
			p.Rng.Fork("arrivals"))
		a.Start()
		p.RunFor(60 * Second)
		b.ReportMetric(a.IOBytes()/1e6/60, "MBps/io")
	}
}

// BenchmarkFig12Bursty runs the bursty-write point (600 req/s, 100 ms
// bursts) for Baseline and IOrchestra and reports both p99.9 values.
func BenchmarkFig12Bursty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var p999 [2]float64
		for si, sys := range []System{SystemBaseline, SystemIOrchestra} {
			p := NewPlatform(sys, benchSeed, WithManagerConfig(core.ManagerConfig{
				MinFlushBytes: 24 << 20, FlushCooldown: Second}))
			run := workload.NewYCSBBursty(p.Kernel, workload.YCSB1(), benchYCSBStore(p),
				600, 100*Millisecond, 500*Millisecond, 0, p.Rng.Fork("gen"))
			run.Gen.Start()
			p.RunFor(10 * Second)
			p999[si] = run.Rec.Latency.Percentile(99.9).Microseconds()
		}
		b.ReportMetric(p999[0], "us/baseline-p999")
		b.ReportMetric(p999[1], "us/iorchestra-p999")
	}
}

// BenchmarkKernelThroughput measures raw simulator event throughput — the
// ablation guardrail for the event-calendar implementation.
func BenchmarkKernelThroughput(b *testing.B) {
	k := sim.NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			k.After(sim.Microsecond, fn)
		}
	}
	b.ResetTimer()
	k.After(sim.Microsecond, fn)
	k.Run()
}

// BenchmarkStoreWatchDispatch measures the control-plane store's write +
// watch-notification path, the overhead the paper claims is low.
func BenchmarkStoreWatchDispatch(b *testing.B) {
	p := NewPlatform(SystemIOrchestra, benchSeed)
	vm := p.NewVM(1, 1)
	st := p.Host.Store()
	fired := 0
	st.Watch(0, store.Root, func(path, value string) { fired++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Dom.WriteInt("bench/key", int64(i))
		p.Kernel.RunUntil(p.Kernel.Now() + Millisecond)
	}
	_ = fired
}
