package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/apps"
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// fig4Scenario is the Sec. 5.1 testbed: a three-VM Olio deployment plus
// two two-VM Cassandra stores (one running YCSB1, one YCSB2), all on one
// host, driven concurrently.
type fig4Scenario struct {
	p    *iorchestra.Platform
	olio *apps.Olio
	gen  *workload.ClosedLoop
	y1   *workload.YCSBRun
	y2   *workload.YCSBRun
}

// cassandraDisk is the data-node disk profile: a 512 MiB page-cache
// budget (the JVM heap owns the rest of the 4 GB) makes memtable/commitlog
// flush dynamics visible within minutes.
func cassandraDisk() guest.DiskConfig {
	return guest.DiskConfig{
		Name: "xvda",
		CacheConfig: pagecache.Config{
			TotalPages: (128 << 20) / pagecache.PageSize,
			// Stock ratios on a small budget: dirty data accumulates for
			// tens of seconds and then flushes in large expiry-driven
			// bursts — the uncoordinated behaviour Sec. 3.1 targets.
			DirtyRatio:      0.6,
			BackgroundRatio: 0.35,
		},
	}
}

func buildFig4(sys iorchestra.System, seed uint64, clients int, y1Rate, y2Rate float64) *fig4Scenario {
	p := tracedPlatform(sys, seed)
	k := p.Kernel

	// Two Cassandra stores first, two data nodes each: 14 VCPUs do not
	// fit 12 cores, and pinning the data nodes before the Olio tiers
	// keeps the inevitable core sharing inside the ms-scale web
	// application instead of starving a µs-scale data node.
	mkStore := func(label string) *apps.CassandraCluster {
		var nodes []*apps.CassandraNode
		for i := 0; i < 2; i++ {
			vm := p.NewVM(2, 4, cassandraDisk())
			nodes = append(nodes, apps.NewCassandraNode(vm.G, vm.G.Disks()[0],
				apps.CassandraConfig{}, p.Rng.Fork(fmt.Sprintf("%s-n%d", label, i))))
		}
		return apps.NewCassandraCluster(k, nodes, p.Rng.Fork(label))
	}
	s1 := mkStore("cass1")
	s2 := mkStore("cass2")
	y1 := workload.NewYCSBOpenLoop(k, workload.YCSB1(), s1, y1Rate, 0, p.Rng.Fork("y1"))
	y2 := workload.NewYCSBOpenLoop(k, workload.YCSB2(), s2, y2Rate, 0, p.Rng.Fork("y2"))

	// Olio: web, database, file-server VMs (2 VCPU / 4 GB each).
	web := p.NewVM(2, 4)
	db := p.NewVM(2, 4)
	fs := p.NewVM(2, 4)
	olio := apps.NewOlio(k, web.G, db.G, fs.G, p.Rng.Fork("olio"))
	gen := workload.NewClosedLoop(k, clients, sim.Second, olio.Request, p.Rng.Fork("faban"))

	return &fig4Scenario{p: p, olio: olio, gen: gen, y1: y1, y2: y2}
}

// fig4Hists is the latency histograms of one (system, intensity) point:
// one replication's as runFig4Point returns them, a point's as
// mergeFig4 folds its replications. Fig. 4 reads means and tails off
// them, Fig. 5 / Fig. 6 their CDFs.
type fig4Hists struct {
	y1, y2       *metrics.Histogram
	web, db, fsv *metrics.Histogram
}

// fig4Reps replications per point are merged so tail percentiles are
// stable; every system sees the same replication seeds.
const fig4Reps = 3

func runFig4Point(sys iorchestra.System, seed uint64, clients int, y1Rate, y2Rate float64, dur sim.Duration) fig4Hists {
	sc := buildFig4(sys, seed, clients, y1Rate, y2Rate)
	sc.gen.Start()
	sc.y1.Gen.Start()
	sc.y2.Gen.Start()
	sc.p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("fig4-%s-c%d-r%g-seed%d", sys, clients, y1Rate, seed), sc.p)
	return fig4Hists{
		y1: sc.y1.Rec.Latency, y2: sc.y2.Rec.Latency,
		web: sc.olio.WebLatency(), db: sc.olio.DBLatency(), fsv: sc.olio.FSLatency(),
	}
}

// mergeFig4 folds a point's replications into one set of histograms.
func mergeFig4(reps []fig4Hists) fig4Hists {
	m := fig4Hists{
		y1: metrics.NewHistogram(), y2: metrics.NewHistogram(),
		web: metrics.NewHistogram(), db: metrics.NewHistogram(), fsv: metrics.NewHistogram(),
	}
	for _, r := range reps {
		m.y1.Merge(r.y1)
		m.y2.Merge(r.y2)
		m.web.Merge(r.web)
		m.db.Merge(r.db)
		m.fsv.Merge(r.fsv)
	}
	return m
}

// RunFig4 sweeps workload intensity for all four systems: six panels
// (mean and p99.9 of Olio, YCSB1, YCSB2) and IOrchestra's mean
// improvement over Baseline on each.
func RunFig4(scale Scale, seed uint64) *Result {
	clients := []float64{50, 100, 150, 200, 250, 300}
	rates := []float64{500, 1000, 1500, 2000, 2500, 3000}
	dur := scale.pick(30*sim.Second, 150*sim.Second)
	systems := iorchestra.Systems()
	g := sweep(seed, fig4Reps, func(seed uint64, c []int) fig4Hists {
		return runFig4Point(systems[c[0]], seed, int(clients[c[1]]), rates[c[1]], rates[c[1]], dur)
	}, len(systems), len(clients))
	merged := make([][]fig4Hists, len(systems))
	for si := range systems {
		for i := range clients {
			merged[si] = append(merged[si], mergeFig4(g.at(si, i)))
		}
	}

	ms := func(d sim.Duration) float64 { return d.Milliseconds() }
	us := func(d sim.Duration) float64 { return d.Microseconds() }
	panels := []struct {
		name, title, xName, format string
		xs                         []float64
		get                        func(fig4Hists) float64
	}{
		{"Olio mean", "Fig 4(a) Olio mean latency (ms)", "clients", "%.1f", clients,
			func(h fig4Hists) float64 { return ms(h.web.Mean()) }},
		{"YCSB1 mean", "Fig 4(b) YCSB1 mean latency (us)", "req/s", "%.0f", rates,
			func(h fig4Hists) float64 { return us(h.y1.Mean()) }},
		{"YCSB2 mean", "Fig 4(c) YCSB2 mean latency (us)", "req/s", "%.0f", rates,
			func(h fig4Hists) float64 { return us(h.y2.Mean()) }},
		{"Olio p99.9", "Fig 4(d) Olio p99.9 latency (ms)", "clients", "%.1f", clients,
			func(h fig4Hists) float64 { return ms(h.web.Percentile(99.9)) }},
		{"YCSB1 p99.9", "Fig 4(e) YCSB1 p99.9 latency (us)", "req/s", "%.0f", rates,
			func(h fig4Hists) float64 { return us(h.y1.Percentile(99.9)) }},
		{"YCSB2 p99.9", "Fig 4(f) YCSB2 p99.9 latency (us)", "req/s", "%.0f", rates,
			func(h fig4Hists) float64 { return us(h.y2.Percentile(99.9)) }},
	}
	res := &Result{}
	imp := map[string]float64{}
	for _, p := range panels {
		panel := Panel{Title: p.title, XName: p.xName, X: p.xs}
		for si, s := range systems {
			panel.add(s.String(), p.format, func(i int) float64 { return p.get(merged[si][i]) })
		}
		// A System's value is its index in iorchestra.Systems().
		base, io := panel.Series[iorchestra.SystemBaseline].Y, panel.Series[iorchestra.SystemIOrchestra].Y
		var imps []float64
		for i := range base {
			imps = append(imps, improvement(base[i], io[i]))
		}
		imp[p.name] = meanOf(imps)
		res.Panels = append(res.Panels, panel)
	}
	// Headline averages (paper: overall 9 % mean / 12 % tail; YCSB1 13 % / 16 %).
	sum := Panel{Title: "Fig 4 summary: IOrchestra improvement vs Baseline", XName: "metric",
		XText: []string{"Olio mean", "Olio p99.9", "YCSB1 mean", "YCSB1 p99.9", "YCSB2 mean", "YCSB2 p99.9"}}
	sum.add("improvement", "%.1f%%", func(i int) float64 { return imp[sum.XText[i]] })
	res.Panels = append(res.Panels, sum)
	return res
}

func init() {
	register(Runner{
		ID:       "fig4",
		Describe: "Olio + YCSB1 + YCSB2 latency vs workload intensity, four systems",
		Run:      RunFig4,
	})
}

// cdfPercentiles are the points Fig. 5 and Fig. 6 report their CDFs at.
var cdfPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// runFig4Pair runs the Fig. 4 scenario at 200 clients and one YCSB rate
// and returns Baseline's and IOrchestra's merged histograms.
func runFig4Pair(seed uint64, rate float64, dur sim.Duration) (base, io fig4Hists) {
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra}
	g := sweep(seed, fig4Reps, func(seed uint64, c []int) fig4Hists {
		return runFig4Point(systems[c[0]], seed, 200, rate, rate, dur)
	}, len(systems))
	return mergeFig4(g.at(0)), mergeFig4(g.at(1))
}

// cdfPanel tabulates Baseline's and IOrchestra's latency CDFs in unit.
func cdfPanel(title, unit, format string, in func(sim.Duration) float64, base, io *metrics.Histogram) Panel {
	p := Panel{Title: title, XName: "percentile", X: cdfPercentiles}
	for _, pc := range cdfPercentiles {
		p.XText = append(p.XText, fmt.Sprintf("p%g", pc))
	}
	for _, s := range []struct {
		label string
		h     *metrics.Histogram
	}{{"Baseline", base}, {"IOrchestra", io}} {
		p.add(fmt.Sprintf("%s (%s)", s.label, unit), format,
			func(i int) float64 { return in(s.h.Percentile(cdfPercentiles[i])) })
	}
	return p
}

// RunFig5 produces YCSB1/YCSB2 latency CDFs at the highest intensity for
// Baseline and IOrchestra.
func RunFig5(scale Scale, seed uint64) *Result {
	base, io := runFig4Pair(seed, 3000, scale.pick(20*sim.Second, 120*sim.Second))
	return &Result{Panels: []Panel{
		cdfPanel("Fig 5(a) YCSB1 latency CDF at 3000 req/s", "us", "%.0f", sim.Duration.Microseconds, base.y1, io.y1),
		cdfPanel("Fig 5(b) YCSB2 latency CDF at 3000 req/s", "us", "%.0f", sim.Duration.Microseconds, base.y2, io.y2),
	}}
}

// RunFig6 produces per-tier latency CDFs for Olio (web end-to-end,
// database queries, file-server ops), Baseline vs IOrchestra.
func RunFig6(scale Scale, seed uint64) *Result {
	base, io := runFig4Pair(seed, 1500, scale.pick(20*sim.Second, 120*sim.Second))
	res := &Result{}
	for _, tier := range []struct {
		title    string
		base, io *metrics.Histogram
	}{
		{"Fig 6(a) web server (end-to-end)", base.web, io.web},
		{"Fig 6(b) database", base.db, io.db},
		{"Fig 6(c) file server", base.fsv, io.fsv},
	} {
		p := cdfPanel(tier.title+" latency CDF", "ms", "%.2f", sim.Duration.Milliseconds, tier.base, tier.io)
		p.Footer = &Footer{"mean improvement",
			improvement(float64(tier.base.Mean()), float64(tier.io.Mean())), "%.1f%%"}
		res.Panels = append(res.Panels, p)
	}
	return res
}

func init() {
	register(Runner{ID: "fig5", Describe: "YCSB latency CDFs at 3000 req/s, Baseline vs IOrchestra",
		Run: RunFig5})
	register(Runner{ID: "fig6", Describe: "Olio per-tier latency CDFs, Baseline vs IOrchestra",
		Run: RunFig6})
}
