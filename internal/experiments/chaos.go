package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/fault"
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// The chaos experiment is the graceful-degradation acceptance test
// (docs/FAULTS.md): IOrchestra's collaborative policies must degrade to
// Baseline behaviour — never below it — as the control plane is broken
// out from under them.
//
// Table A sweeps the fraction of uncooperative guests (no store driver at
// all) from 0 to 1 and compares Baseline against IOrchestra throughput on
// the same seed: at 1.0 the manager has nobody to talk to and the two
// systems must match within noise.
//
// Table B holds the guest population cooperative but injects
// control-plane faults at increasing rates — driver crashes (with
// restart), stuck syncs, dropped and delayed watch deliveries, stale
// store writes — and reports IOrchestra's throughput and tail latency
// alongside the degradation counters, so a reader can line up "how hard
// was the control plane hit" with "what did the timeouts and fallbacks
// do about it".

const chaosVMs = 4

// chaosVM is the Fig. 8 flush-prone profile: a small cache with low dirty
// ratios under a write-heavy fileserver keeps Algorithm 1 busy, which is
// exactly the traffic the flush-deadline machinery needs to be exercised.
func chaosVM(p *iorchestra.Platform, i int) *workload.FS {
	rt := p.NewVM(1, 1, guest.DiskConfig{
		Name: "xvda",
		CacheConfig: pagecache.Config{
			TotalPages:      (1 << 30) / pagecache.PageSize,
			DirtyRatio:      0.2,
			BackgroundRatio: 0.1,
			WritebackWindow: 64,
		},
	})
	fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
		Threads: 2, MeanFileSize: 1 << 20, Think: 6 * sim.Millisecond,
		WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
		BurstOn: 1500 * sim.Millisecond, BurstOff: 3500 * sim.Millisecond,
	}, p.Rng.Fork(fmt.Sprintf("fs%d", i)))
	fs.Start()
	return fs
}

type chaosPoint struct {
	mbps     float64
	p99      sim.Duration
	flushTO  uint64
	hbMiss   uint64
	fallback uint64
	restores uint64
	injected uint64
}

// runChaosPoint runs one (system, fault spec) scenario and collects
// throughput, tail latency and the degradation counters.
func runChaosPoint(sys iorchestra.System, seed uint64, spec fault.Spec, dur sim.Duration, label string) chaosPoint {
	p := tracedPlatform(sys, seed,
		// Backend mode for both systems (no co-scheduling) so Baseline
		// and IOrchestra run on an identical substrate and the delta is
		// purely the control plane's doing.
		iorchestra.WithPolicies(iorchestra.Policies{Flush: true, Congestion: true}),
		iorchestra.WithFaults(spec))
	var fss []*workload.FS
	for i := 0; i < chaosVMs; i++ {
		fss = append(fss, chaosVM(p, i))
	}
	p.RunFor(dur)

	var pt chaosPoint
	var written float64
	lat := metrics.NewHistogram()
	for _, fs := range fss {
		written += fs.WrittenBytes()
		lat.Merge(fs.Ops().Latency)
	}
	pt.mbps = written / dur.Seconds() / 1e6
	pt.p99 = lat.Percentile(99)
	if p.Manager != nil {
		c := p.Manager.Counters()
		pt.flushTO = c.FlushTimeouts
		pt.hbMiss = c.HeartbeatMisses
		pt.fallback = c.Fallbacks
		pt.restores = c.Restores
	}
	if p.Faults != nil {
		pt.injected = p.Faults.Total()
	}
	dumpTrace(label, p)
	return pt
}

// RunChaos sweeps fault intensity and reports Baseline-vs-IOrchestra
// throughput plus IOrchestra's degradation ledger.
func RunChaos(scale Scale, seed uint64) *Result {
	dur := scale.pick(8*sim.Second, 40*sim.Second)

	// Table A: uncooperative-guest sweep, both systems.
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra}
	ga := sweep(seed, 1, func(seed uint64, c []int) chaosPoint {
		frac, sys := fracs[c[0]], systems[c[1]]
		return runChaosPoint(sys, seed, fault.Spec{Uncoop: frac}, dur,
			fmt.Sprintf("chaos-uncoop%g-%s-seed%d", frac, sys, seed))
	}, len(fracs), len(systems))
	ta := Panel{Title: "Chaos A: uncooperative-guest fraction, write throughput", XName: "uncoop", X: fracs}
	ta.add("Baseline MB/s", "%.1f", func(fi int) float64 { return ga.one(fi, 0).mbps })
	ta.add("IOrchestra MB/s", "%.1f", func(fi int) float64 { return ga.one(fi, 1).mbps })
	ta.add("delta", "%+.1f%%", func(fi int) float64 { return gain(ga.one(fi, 0).mbps, ga.one(fi, 1).mbps) })

	// Table B: control-plane fault-rate sweep, IOrchestra only.
	rates := []float64{0, 0.25, 0.5, 1}
	gb := sweep(seed, 1, func(seed uint64, c []int) chaosPoint {
		r := rates[c[0]]
		var spec fault.Spec
		if r > 0 {
			spec = fault.Spec{
				CrashFrac: r, CrashAt: dur / 4, CrashRestart: dur / 4,
				StuckSyncProb:  0.5 * r,
				WatchDropProb:  0.1 * r,
				StaleWriteProb: 0.05 * r,
				WatchDelayProb: 0.3 * r, WatchDelayMax: 10 * sim.Millisecond,
			}
		}
		return runChaosPoint(iorchestra.SystemIOrchestra, seed, spec, dur,
			fmt.Sprintf("chaos-rate%g-seed%d", r, seed))
	}, len(rates))
	tb := Panel{Title: "Chaos B: control-plane fault rate, IOrchestra degradation", XName: "rate", X: rates}
	for _, col := range []struct {
		label, format string
		get           func(chaosPoint) float64
	}{
		{"MB/s", "%.1f", func(pt chaosPoint) float64 { return pt.mbps }},
		{"p99 lat", durationCell, func(pt chaosPoint) float64 { return float64(pt.p99) }},
		{"injected", "%.0f", func(pt chaosPoint) float64 { return float64(pt.injected) }},
		{"hb miss", "%.0f", func(pt chaosPoint) float64 { return float64(pt.hbMiss) }},
		{"flush t/o", "%.0f", func(pt chaosPoint) float64 { return float64(pt.flushTO) }},
		{"fallbacks", "%.0f", func(pt chaosPoint) float64 { return float64(pt.fallback) }},
		{"restores", "%.0f", func(pt chaosPoint) float64 { return float64(pt.restores) }},
	} {
		tb.add(col.label, col.format, func(ri int) float64 { return col.get(gb.one(ri)) })
	}
	return &Result{Panels: []Panel{ta, tb}}
}

func init() {
	register(Runner{
		ID:       "chaos",
		Describe: "Fault-injection sweep: uncooperative guests and control-plane faults vs graceful degradation",
		Run:      RunChaos,
	})
}
