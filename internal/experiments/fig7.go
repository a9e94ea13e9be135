package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/apps"
	"iorchestra/internal/baselines"
	"iorchestra/internal/cluster"
	"iorchestra/internal/core"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/workload"
)

// RunFig7 reproduces the scaled-out experiment (Sec. 5.2): each of 1–8
// machines hosts three VMs running Cloud9, an mpiBLAST worker, and a
// YCSB1 Cassandra node; mpiBLAST partitions its database across machines
// and Cassandra shards its keyspace. Mean I/O latency is normalized to
// the Baseline at the same cluster size.
func RunFig7(scale Scale, seed uint64) *Result {
	sizes := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	systems := iorchestra.Systems()
	dur := scale.pick(20*sim.Second, 90*sim.Second)
	g := sweep(seed, 1, func(seed uint64, c []int) fig7Point {
		return runFig7Point(systems[c[0]], seed, int(sizes[c[1]]), dur)
	}, len(systems), len(sizes))

	// A System's value is its index in iorchestra.Systems().
	base, io := int(iorchestra.SystemBaseline), int(iorchestra.SystemIOrchestra)
	normalized := func(title string, get func(fig7Point) float64) Panel {
		p := Panel{Title: title, XName: "machines", X: sizes}
		for _, s := range []iorchestra.System{iorchestra.SystemIOrchestra, iorchestra.SystemSDC, iorchestra.SystemDIF} {
			p.add(s.String(), "%.3f", func(i int) float64 { return get(g.one(int(s), i)) / get(g.one(base, i)) })
		}
		// Average improvement of IOrchestra (paper: 10.1 % blast, 12.9 % YCSB1).
		var imp []float64
		for i := range sizes {
			imp = append(imp, improvement(get(g.one(base, i)), get(g.one(io, i))))
		}
		p.Footer = &Footer{"avg impr", meanOf(imp), "%.1f%%"}
		return p
	}
	return &Result{Panels: []Panel{
		normalized("Fig 7(a) mpiBLAST normalized mean I/O latency", func(pt fig7Point) float64 { return pt.blastMean }),
		normalized("Fig 7(b) YCSB1 normalized mean I/O latency", func(pt fig7Point) float64 { return pt.ycsbMean }),
	}}
}

// fig7Point is one (system, cluster size) measurement, in seconds.
type fig7Point struct {
	blastMean float64
	ycsbMean  float64
}

func runFig7Point(sys iorchestra.System, seed uint64, machines int, dur sim.Duration) (pt fig7Point) {
	k := sim.NewKernel()
	rng := stats.NewStream(seed, "fig7")
	hostCfg := hypervisor.Config{}
	switch sys {
	case iorchestra.SystemSDC:
		hostCfg.Mode = hypervisor.ModeDedicated
	case iorchestra.SystemIOrchestra:
		hostCfg.Mode = hypervisor.ModeDedicated
		hostCfg.RouteBySocket = true
	}
	tb := cluster.NewTestbed(k, machines, hostCfg, rng.Fork("tb"))

	// Per-host system components.
	var mgrs []*core.Manager
	var difs []*baselines.DIF
	var sdcs []*baselines.SDC
	for _, h := range tb.Hosts() {
		switch sys {
		case iorchestra.SystemIOrchestra:
			mgrs = append(mgrs, core.NewManager(h, core.All(), core.ManagerConfig{}, rng.Fork(h.Name()+"/mgr")))
		case iorchestra.SystemDIF:
			difs = append(difs, baselines.NewDIF(h))
		case iorchestra.SystemSDC:
			sdcs = append(sdcs, baselines.NewSDC(h))
		}
	}
	enable := func(i int, rt *hypervisor.GuestRuntime) {
		switch sys {
		case iorchestra.SystemIOrchestra:
			mgrs[i].EnableGuest(rt)
		case iorchestra.SystemDIF:
			difs[i].EnableGuest(rt)
		case iorchestra.SystemSDC:
			sdcs[i].EnableGuest(rt)
		}
	}

	var blastGuests []*guest.Guest
	var nodes []*apps.CassandraNode
	var cpu []*workload.CPUBound
	for i, h := range tb.Hosts() {
		// Cloud9 VM.
		c9 := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
		enable(i, c9)
		cb := workload.NewCPUBound(k, c9.G, rng.Fork(fmt.Sprintf("c9-%d", i)))
		cpu = append(cpu, cb)
		// mpiBLAST worker VM.
		bw := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
		enable(i, bw)
		blastGuests = append(blastGuests, bw.G)
		// YCSB1 Cassandra node VM.
		cn := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30}, cassandraDisk())
		enable(i, cn)
		nodes = append(nodes, apps.NewCassandraNode(cn.G, cn.G.Disks()[0],
			apps.CassandraConfig{}, rng.Fork(fmt.Sprintf("cass-%d", i))))
	}
	// The database scales with the cluster so per-worker partitions stay
	// constant (weak scaling, as mpiBLAST deployments do).
	job := apps.NewBlastJob(k, blastGuests, int64(machines)*2<<30, true, rng.Fork("blast"))
	job.Start()
	cl := apps.NewCassandraCluster(k, nodes, rng.Fork("cl"))
	// Load scales with nodes; inter-node traffic grows with the cluster.
	y1 := workload.NewYCSBOpenLoop(k, workload.YCSB1(), cl, 700*float64(machines), 0, rng.Fork("y1"))
	y1.Gen.Start()
	for _, cb := range cpu {
		cb.Start()
	}
	k.RunUntil(dur)

	bh := metrics.NewHistogram()
	for _, w := range job.Workers() {
		bh.Merge(w.Ops().Latency)
	}
	pt.blastMean = bh.Mean().Seconds()
	pt.ycsbMean = y1.Rec.Latency.Mean().Seconds()
	return pt
}

func init() {
	register(Runner{
		ID:       "fig7",
		Describe: "Scaled-out mpiBLAST + YCSB1 + Cloud9 on 1-8 machines, normalized latency",
		Run:      RunFig7,
	})
}
