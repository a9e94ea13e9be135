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
			nodes = append(nodes, apps.NewCassandraNode(k, vm.G, vm.G.Disks()[0],
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

// fig4PointResult carries one (system, intensity) measurement.
type fig4PointResult struct {
	olioMeanMs, olioP999Ms float64
	y1MeanUs, y1P999Us     float64
	y2MeanUs, y2P999Us     float64

	// Retained histograms for Fig. 5 / Fig. 6 CDFs.
	y1Hist, y2Hist         *metrics.Histogram
	webHist, dbHist, fHist *metrics.Histogram
}

// fig4Reps replications per point are merged so tail percentiles are
// stable; every system sees the same replication seeds.
const fig4Reps = 3

func runFig4Point(sys iorchestra.System, seed uint64, clients int, y1Rate, y2Rate float64, dur sim.Duration) fig4PointResult {
	merged := fig4PointResult{
		y1Hist:  metrics.NewHistogram(),
		y2Hist:  metrics.NewHistogram(),
		webHist: metrics.NewHistogram(),
		dbHist:  metrics.NewHistogram(),
		fHist:   metrics.NewHistogram(),
	}
	for rep := 0; rep < fig4Reps; rep++ {
		sc := buildFig4(sys, seed+uint64(rep)*1000, clients, y1Rate, y2Rate)
		sc.gen.Start()
		sc.y1.Gen.Start()
		sc.y2.Gen.Start()
		sc.p.Kernel.RunUntil(dur)
		dumpTrace(fmt.Sprintf("fig4-%s-c%d-r%g-seed%d", sys, clients, y1Rate, seed+uint64(rep)*1000), sc.p)
		merged.y1Hist.Merge(sc.y1.Rec.Latency)
		merged.y2Hist.Merge(sc.y2.Rec.Latency)
		merged.webHist.Merge(sc.olio.WebLatency())
		merged.dbHist.Merge(sc.olio.DBLatency())
		merged.fHist.Merge(sc.olio.FSLatency())
	}
	merged.olioMeanMs = merged.webHist.Mean().Milliseconds()
	merged.olioP999Ms = merged.webHist.Percentile(99.9).Milliseconds()
	merged.y1MeanUs = merged.y1Hist.Mean().Microseconds()
	merged.y1P999Us = merged.y1Hist.Percentile(99.9).Microseconds()
	merged.y2MeanUs = merged.y2Hist.Mean().Microseconds()
	merged.y2P999Us = merged.y2Hist.Percentile(99.9).Microseconds()
	return merged
}

// Fig4Result holds the six panels of Fig. 4.
type Fig4Result struct {
	Clients []int
	Rates   []float64
	// Indexed [system][point].
	OlioMean, OlioP999 map[iorchestra.System][]float64
	Y1Mean, Y1P999     map[iorchestra.System][]float64
	Y2Mean, Y2P999     map[iorchestra.System][]float64
}

// RunFig4 sweeps workload intensity for all four systems.
func RunFig4(scale Scale, seed uint64) *Fig4Result {
	clients := []int{50, 100, 150, 200, 250, 300}
	rates := []float64{500, 1000, 1500, 2000, 2500, 3000}
	dur := scale.pick(30*sim.Second, 150*sim.Second)
	systems := iorchestra.Systems()

	type job struct {
		sys   iorchestra.System
		point int
	}
	var jobs []job
	for _, s := range systems {
		for i := range clients {
			jobs = append(jobs, job{s, i})
		}
	}
	results := parallelMap(len(jobs), func(i int) fig4PointResult {
		j := jobs[i]
		return runFig4Point(j.sys, seed, clients[j.point], rates[j.point], rates[j.point], dur)
	})

	out := &Fig4Result{
		Clients:  clients,
		Rates:    rates,
		OlioMean: map[iorchestra.System][]float64{}, OlioP999: map[iorchestra.System][]float64{},
		Y1Mean: map[iorchestra.System][]float64{}, Y1P999: map[iorchestra.System][]float64{},
		Y2Mean: map[iorchestra.System][]float64{}, Y2P999: map[iorchestra.System][]float64{},
	}
	for idx, j := range jobs {
		r := results[idx]
		out.OlioMean[j.sys] = append(out.OlioMean[j.sys], r.olioMeanMs)
		out.OlioP999[j.sys] = append(out.OlioP999[j.sys], r.olioP999Ms)
		out.Y1Mean[j.sys] = append(out.Y1Mean[j.sys], r.y1MeanUs)
		out.Y1P999[j.sys] = append(out.Y1P999[j.sys], r.y1P999Us)
		out.Y2Mean[j.sys] = append(out.Y2Mean[j.sys], r.y2MeanUs)
		out.Y2P999[j.sys] = append(out.Y2P999[j.sys], r.y2P999Us)
	}
	return out
}

func fig4Tables(r *Fig4Result) []*Table {
	systems := iorchestra.Systems()
	mk := func(title, xName string, xs []float64, data map[iorchestra.System][]float64, format string) *Table {
		var series []Series
		for _, s := range systems {
			series = append(series, Series{Label: s.String(), X: xs, Y: data[s]})
		}
		return SeriesTable(title, xName, series, format)
	}
	xc := make([]float64, len(r.Clients))
	for i, c := range r.Clients {
		xc[i] = float64(c)
	}
	var tables []*Table
	tables = append(tables,
		mk("Fig 4(a) Olio mean latency (ms)", "clients", xc, r.OlioMean, "%.1f"),
		mk("Fig 4(b) YCSB1 mean latency (us)", "req/s", r.Rates, r.Y1Mean, "%.0f"),
		mk("Fig 4(c) YCSB2 mean latency (us)", "req/s", r.Rates, r.Y2Mean, "%.0f"),
		mk("Fig 4(d) Olio p99.9 latency (ms)", "clients", xc, r.OlioP999, "%.1f"),
		mk("Fig 4(e) YCSB1 p99.9 latency (us)", "req/s", r.Rates, r.Y1P999, "%.0f"),
		mk("Fig 4(f) YCSB2 p99.9 latency (us)", "req/s", r.Rates, r.Y2P999, "%.0f"),
	)
	// Headline averages (paper: overall 9 % mean / 12 % tail; YCSB1 13 % / 16 %).
	sum := &Table{Title: "Fig 4 summary: IOrchestra improvement vs Baseline",
		Header: []string{"metric", "improvement"}}
	addImp := func(name string, base, io []float64) {
		var imps []float64
		for i := range base {
			imps = append(imps, improvement(base[i], io[i]))
		}
		sum.Rows = append(sum.Rows, []string{name, fmt.Sprintf("%.1f%%", meanOf(imps))})
	}
	b, io := iorchestra.SystemBaseline, iorchestra.SystemIOrchestra
	addImp("Olio mean", r.OlioMean[b], r.OlioMean[io])
	addImp("Olio p99.9", r.OlioP999[b], r.OlioP999[io])
	addImp("YCSB1 mean", r.Y1Mean[b], r.Y1Mean[io])
	addImp("YCSB1 p99.9", r.Y1P999[b], r.Y1P999[io])
	addImp("YCSB2 mean", r.Y2Mean[b], r.Y2Mean[io])
	addImp("YCSB2 p99.9", r.Y2P999[b], r.Y2P999[io])
	tables = append(tables, sum)
	return tables
}

func init() {
	register(Runner{
		ID:       "fig4",
		Describe: "Olio + YCSB1 + YCSB2 latency vs workload intensity, four systems",
		Run: func(scale Scale, seed uint64) []*Table {
			return fig4Tables(RunFig4(scale, seed))
		},
	})
}

// --- Fig. 5: latency CDFs at 3000 req/s ------------------------------------

// RunFig5 produces YCSB1/YCSB2 latency CDFs at the highest intensity for
// Baseline and IOrchestra.
func RunFig5(scale Scale, seed uint64) []*Table {
	dur := scale.pick(20*sim.Second, 120*sim.Second)
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra}
	results := parallelMap(len(systems), func(i int) fig4PointResult {
		return runFig4Point(systems[i], seed, 200, 3000, 3000, dur)
	})
	var tables []*Table
	for wi, name := range []string{"Fig 5(a) YCSB1", "Fig 5(b) YCSB2"} {
		t := &Table{Title: name + " latency CDF at 3000 req/s",
			Header: []string{"percentile", "Baseline (us)", "IOrchestra (us)"}}
		for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
			row := []string{fmt.Sprintf("p%g", p)}
			for si := range systems {
				h := results[si].y1Hist
				if wi == 1 {
					h = results[si].y2Hist
				}
				row = append(row, fmt.Sprintf("%.0f", h.Percentile(p).Microseconds()))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// --- Fig. 6: per-tier Olio CDFs ---------------------------------------------

// RunFig6 produces per-tier latency CDFs for Olio (web end-to-end,
// database queries, file-server ops), Baseline vs IOrchestra.
func RunFig6(scale Scale, seed uint64) []*Table {
	dur := scale.pick(20*sim.Second, 120*sim.Second)
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra}
	results := parallelMap(len(systems), func(i int) fig4PointResult {
		return runFig4Point(systems[i], seed, 200, 1500, 1500, dur)
	})
	tiers := []struct {
		name string
		get  func(fig4PointResult) *metrics.Histogram
	}{
		{"Fig 6(a) web server (end-to-end)", func(r fig4PointResult) *metrics.Histogram { return r.webHist }},
		{"Fig 6(b) database", func(r fig4PointResult) *metrics.Histogram { return r.dbHist }},
		{"Fig 6(c) file server", func(r fig4PointResult) *metrics.Histogram { return r.fHist }},
	}
	var tables []*Table
	for _, tier := range tiers {
		t := &Table{Title: tier.name + " latency CDF",
			Header: []string{"percentile", "Baseline (ms)", "IOrchestra (ms)"}}
		for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
			row := []string{fmt.Sprintf("p%g", p)}
			for si := range systems {
				row = append(row, fmt.Sprintf("%.2f", tier.get(results[si]).Percentile(p).Milliseconds()))
			}
			t.Rows = append(t.Rows, row)
		}
		base, io := tier.get(results[0]).Mean(), tier.get(results[1]).Mean()
		t.Rows = append(t.Rows, []string{"mean improvement",
			fmt.Sprintf("%.1f%%", improvement(float64(base), float64(io))), ""})
		tables = append(tables, t)
	}
	return tables
}

func init() {
	register(Runner{ID: "fig5", Describe: "YCSB latency CDFs at 3000 req/s, Baseline vs IOrchestra",
		Run: RunFig5})
	register(Runner{ID: "fig6", Describe: "Olio per-tier latency CDFs, Baseline vs IOrchestra",
		Run: RunFig6})
}
