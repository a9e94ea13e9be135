package iorchestra

// Integration tests: end-to-end flows across the full stack — workload →
// guest I/O stack → paravirtual path → host → device, with the control
// plane observing and intervening. These complement the per-package unit
// tests by asserting the emergent behaviours the experiments rely on.

import (
	"testing"

	"iorchestra/internal/apps"
	"iorchestra/internal/blkio"
	"iorchestra/internal/guest"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

func TestIntegrationFlushPolicyKeepsCachesCleanerThanBaseline(t *testing.T) {
	dirtyIntegral := func(sys System) float64 {
		p := NewPlatform(sys, 11, WithPolicies(Policies{Flush: true}))
		var vms []*VM
		for i := 0; i < 4; i++ {
			rt := p.NewVM(1, 1, workload.FlushProneDisk(0.4))
			fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
				Threads: 2, MeanFileSize: 1 << 20, Think: 6 * Millisecond,
				WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
				BurstOn: Second, BurstOff: 2 * Second,
			}, p.Rng.Fork(string(rune('a'+i))))
			fs.Start()
			vms = append(vms, rt)
		}
		// Sample dirty bytes periodically.
		var integral float64
		for step := 0; step < 60; step++ {
			p.RunFor(500 * Millisecond)
			for _, vm := range vms {
				integral += float64(vm.G.Disks()[0].Cache.DirtyPages() * pagecache.PageSize)
			}
		}
		return integral
	}
	base := dirtyIntegral(SystemBaseline)
	io := dirtyIntegral(SystemIOrchestra)
	if io >= base {
		t.Fatalf("IOrchestra dirty integral %.0f not below baseline %.0f", io, base)
	}
}

func TestIntegrationCongestionVetoUnderRealWorkload(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 12, WithPolicies(Policies{Congestion: true}), WithTracing(0))
	rt := p.NewVM(2, 2, guest.DiskConfig{
		Name:        "xvda",
		QueueConfig: blkio.Config{Limit: 48, DispatchWindow: 16, MaxMerge: 64 << 10},
		MaxTransfer: 64 << 10,
	})
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 6, 64<<20, 1<<20, p.Rng.Fork("ms"))
	ms.Start()
	p.RunFor(5 * Second)
	if p.Manager.Counters().Vetoes == 0 {
		t.Fatal("no vetoes despite queue pressure on an idle array")
	}
	if p.Trace.Count(trace.KindQueueRelease) == 0 {
		t.Fatal("driver never released its queue")
	}
	if ms.Ops().Completed() == 0 {
		t.Fatal("workload made no progress")
	}
}

func TestIntegrationStoreTrafficFlowsBothWays(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 13)
	rt := p.NewVM(2, 2)
	proc := rt.G.NewProcess(1)
	for i := 0; i < 50; i++ {
		rt.G.Disks()[0].Write(proc, 1<<20, nil)
	}
	p.RunFor(2 * Second)
	reads, writes, notifies := p.Host.Store().Stats()
	if writes == 0 || notifies == 0 {
		t.Fatalf("store idle: reads=%d writes=%d notifies=%d", reads, writes, notifies)
	}
	// The guest's dirty state must be visible to Dom0 under the paper's
	// key layout.
	v, err := p.Host.Store().Read(store.Dom0,
		store.DomainPath(rt.G.ID())+"/virt-dev/xvda/has_dirty_pages")
	if err != nil {
		t.Fatalf("Dom0 cannot read guest state: %v", err)
	}
	if v != "0" && v != "1" {
		t.Fatalf("has_dirty_pages = %q", v)
	}
}

func TestIntegrationIsolationGuestsCannotTouchEachOther(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 14)
	a := p.NewVM(1, 1)
	b := p.NewVM(1, 1)
	// Guest B attempts to read and clobber guest A's policy keys.
	pathA := store.DomainPath(a.G.ID()) + "/virt-dev/xvda/flush_now"
	if _, err := p.Host.Store().Read(b.G.ID(), pathA); err == nil {
		t.Fatal("guest B read guest A's keys")
	}
	if err := p.Host.Store().Write(b.G.ID(), pathA, "1"); err == nil {
		t.Fatal("guest B wrote guest A's keys")
	}
}

func TestIntegrationFourSystemsCompleteSameWorkload(t *testing.T) {
	for _, sys := range Systems() {
		p := NewPlatform(sys, 15)
		cl := func() *apps.CassandraCluster {
			var nodes []*apps.CassandraNode
			for i := 0; i < 2; i++ {
				vm := p.NewVM(2, 4)
				nodes = append(nodes, apps.NewCassandraNode(vm.G, vm.G.Disks()[0],
					apps.CassandraConfig{}, p.Rng.Fork(string(rune('x'+i)))))
			}
			return apps.NewCassandraCluster(p.Kernel, nodes, p.Rng.Fork("cl"))
		}()
		run := workload.NewYCSBOpenLoop(p.Kernel, workload.YCSB1(), cl, 1000, 2000, p.Rng.Fork("gen"))
		run.Gen.Start()
		p.RunFor(30 * Second)
		if got := run.Rec.Completed(); got != 2000 {
			t.Fatalf("%v: completed %d/2000 ops", sys, got)
		}
		if run.Rec.Latency.Mean() <= 0 {
			t.Fatalf("%v: degenerate latency", sys)
		}
	}
}

func TestIntegrationPairedSeedsAcrossSystems(t *testing.T) {
	// The same seed must produce identical workload draws on different
	// systems: operation counts at a fixed horizon may differ (policies
	// change service times) but issued request sequences must match. We
	// verify via open-loop issue counts, which depend only on the
	// generator's stream.
	counts := map[System]uint64{}
	for _, sys := range Systems() {
		p := NewPlatform(sys, 16)
		vm := p.NewVM(2, 4)
		n := apps.NewCassandraNode(vm.G, vm.G.Disks()[0], apps.CassandraConfig{}, p.Rng.Fork("n"))
		cl := apps.NewCassandraCluster(p.Kernel, []*apps.CassandraNode{n}, p.Rng.Fork("cl"))
		run := workload.NewYCSBOpenLoop(p.Kernel, workload.YCSB1(), cl, 500, 0, p.Rng.Fork("gen"))
		run.Gen.Start()
		p.RunFor(10 * Second)
		counts[sys] = run.Rec.Started()
	}
	for _, sys := range Systems()[1:] {
		if counts[sys] != counts[SystemBaseline] {
			t.Fatalf("issue counts diverged: %v=%d baseline=%d",
				sys, counts[sys], counts[SystemBaseline])
		}
	}
}

func TestIntegrationCoschedBalancesBigVM(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 17,
		WithPolicies(Policies{Cosched: true}),
		WithHostConfig(HostConfig{Sockets: 2, CoresPerSocket: 6,
			IOCoreCostPerReq: 10 * Microsecond, IOCoreBps: 2e9}))
	rt := p.NewVM(10, 10, guest.DiskConfig{Name: "xvda", MaxTransfer: 256 << 10})
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 4, 128<<20, 1<<20, p.Rng.Fork("ms"))
	ms.Start()
	p.RunFor(10 * Second)
	w := rt.G.ProcessWeightBySocket()
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("co-scheduling left sockets unbalanced: %v", w)
	}
	c0, c1 := p.Host.IOCores()[0], p.Host.IOCores()[1]
	if c0.Processed() == 0 || c1.Processed() == 0 {
		t.Fatalf("one core idle: %d/%d", c0.Processed(), c1.Processed())
	}
}

func TestIntegrationDeterministicEndToEnd(t *testing.T) {
	run := func() (uint64, Time) {
		p := NewPlatform(SystemIOrchestra, 18)
		rt := p.NewVM(2, 2)
		fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{Threads: 2}, p.Rng.Fork("fs"))
		fs.Start()
		p.RunFor(5 * Second)
		return fs.Ops().Completed(), fs.Ops().Latency.Max()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", c1, m1, c2, m2)
	}
	if c1 == 0 {
		t.Fatal("no work done")
	}
}
