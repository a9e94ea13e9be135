// Command olio runs the paper's flagship multi-tier scenario (Sec. 5.1):
// a three-VM Olio deployment (Apache+PHP web tier, MySQL database tier,
// file-server tier) plus two two-node Cassandra stores serving YCSB1 and
// YCSB2, all on one host, under Baseline and IOrchestra. It prints
// per-application and per-tier latencies — the data behind Figs. 4–6.
//
//	go run ./examples/olio
package main

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/apps"
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/workload"
)

func cassandraDisk() guest.DiskConfig {
	return guest.DiskConfig{
		Name: "xvda",
		CacheConfig: pagecache.Config{
			TotalPages:      (128 << 20) / pagecache.PageSize,
			DirtyRatio:      0.6,
			BackgroundRatio: 0.35,
		},
	}
}

func fmtHist(name string, h *metrics.Histogram, ms bool) string {
	if ms {
		return fmt.Sprintf("  %-22s mean %8.2f ms   p99 %8.2f ms   p99.9 %8.2f ms",
			name, h.Mean().Milliseconds(), h.Percentile(99).Milliseconds(),
			h.Percentile(99.9).Milliseconds())
	}
	return fmt.Sprintf("  %-22s mean %8.0f us   p99 %8.0f us   p99.9 %8.0f us",
		name, h.Mean().Microseconds(), h.Percentile(99).Microseconds(),
		h.Percentile(99.9).Microseconds())
}

func main() {
	fmt.Println("Olio + 2x Cassandra on one host — 200 CloudStone clients,")
	fmt.Println("YCSB1/YCSB2 at 2000 req/s each, 30 s of virtual time")

	for _, sys := range []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra} {
		p := iorchestra.NewPlatform(sys, 42)
		k := p.Kernel

		mkStore := func(label string) *apps.CassandraCluster {
			var nodes []*apps.CassandraNode
			for i := 0; i < 2; i++ {
				vm := p.NewVM(2, 4, cassandraDisk())
				nodes = append(nodes, apps.NewCassandraNode(k, vm.G, vm.G.Disks()[0],
					apps.CassandraConfig{}, p.Rng.Fork(fmt.Sprintf("%s%d", label, i))))
			}
			return apps.NewCassandraCluster(k, nodes, p.Rng.Fork(label))
		}
		s1, s2 := mkStore("cass1"), mkStore("cass2")
		y1 := workload.NewYCSBOpenLoop(k, workload.YCSB1(), s1, 2000, 0, p.Rng.Fork("y1"))
		y2 := workload.NewYCSBOpenLoop(k, workload.YCSB2(), s2, 2000, 0, p.Rng.Fork("y2"))

		web, db, fs := p.NewVM(2, 4), p.NewVM(2, 4), p.NewVM(2, 4)
		olio := apps.NewOlio(k, web.G, db.G, fs.G, p.Rng.Fork("olio"))
		faban := workload.NewClosedLoop(k, 200, iorchestra.Second, olio.Request, p.Rng.Fork("faban"))

		faban.Start()
		y1.Gen.Start()
		y2.Gen.Start()
		p.RunFor(30 * iorchestra.Second)

		fmt.Printf("\n=== %s ===\n", sys)
		fmt.Println(fmtHist("Olio (end-to-end)", olio.WebLatency(), true))
		fmt.Println(fmtHist("Olio database tier", olio.DBLatency(), true))
		fmt.Println(fmtHist("Olio file-server tier", olio.FSLatency(), true))
		fmt.Println(fmtHist("YCSB1 (update-heavy)", y1.Rec.Latency, false))
		fmt.Println(fmtHist("YCSB2 (read-mostly)", y2.Rec.Latency, false))
		if p.Manager != nil {
			fmt.Printf("  policy activity: %d flush notices, %d congestion vetoes, %d co-sched runs\n",
				p.Manager.Counters().FlushNotices, p.Manager.Counters().Vetoes, p.Manager.Counters().CoschedRuns)
		}
	}
}
