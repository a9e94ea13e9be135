package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/blkio"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/workload"
)

// The Sec. 2 motivation test: two VMs, eight threads each, reading eight
// 1 GB files concurrently, with Linux congestion avoidance at defaults
// versus disabled versus IOrchestra's collaborative control.
const (
	e0Streams   = 8
	e0FileSize  = 1 << 30
	e0ChunkSize = 1 << 20
	// e0QueueLimit is the virtio ring / nr_requests budget; readahead
	// from eight streams fills it, falsely triggering avoidance: 8
	// streams × 16 readahead chunks merge into ~64 queued requests per
	// VM, above the 7/8 threshold (59) but below the hard limit (68), so
	// congestion avoidance is the binding constraint — the regime of the
	// paper's test.
	e0QueueLimit = 68
)

// E0Variant selects the congestion configuration under test.
type E0Variant int

const (
	// E0Default is stock Linux avoidance (the 220 ms case).
	E0Default E0Variant = iota
	// E0Disabled turns avoidance off (the 160 ms case).
	E0Disabled
	// E0IOrchestra uses the collaborative controller (Algorithm 2).
	E0IOrchestra
)

func (v E0Variant) String() string {
	switch v {
	case E0Default:
		return "avoidance-on"
	case E0Disabled:
		return "avoidance-off"
	default:
		return "IOrchestra"
	}
}

// e0Point is the application read latency of one variant.
type e0Point struct {
	meanMs float64
	p999Ms float64
	chunks uint64
}

// RunE0 executes the motivation test for all three variants.
func RunE0(scale Scale, seed uint64) *Result {
	dur := scale.pick(4*sim.Second, 20*sim.Second)
	variants := []E0Variant{E0Default, E0Disabled, E0IOrchestra}
	g := sweep(seed, 1, func(seed uint64, c []int) e0Point {
		return runE0Variant(variants[c[0]], dur, seed)
	}, len(variants))

	p := Panel{Title: "Sec. 2 motivation test — mean 1 MiB read latency", XName: "variant"}
	for _, v := range variants {
		p.XText = append(p.XText, v.String())
	}
	p.add("mean (ms)", "%.2f", func(i int) float64 { return g.one(i).meanMs })
	p.add("p99.9 (ms)", "%.2f", func(i int) float64 { return g.one(i).p999Ms })
	p.add("reads", "%.0f", func(i int) float64 { return float64(g.one(i).chunks) })
	p.Footer = &Footer{"off vs on", improvement(g.one(0).meanMs, g.one(1).meanMs), "%.1f%% faster"}
	return &Result{Panels: []Panel{p}}
}

func runE0Variant(v E0Variant, dur sim.Duration, seed uint64) e0Point {
	sys := iorchestra.SystemBaseline
	if v == E0IOrchestra {
		sys = iorchestra.SystemIOrchestra
	}
	p := tracedPlatform(sys, seed,
		iorchestra.WithPolicies(iorchestra.Policies{Congestion: true}))
	var gens []*workload.MultiStream
	for vm := 0; vm < 2; vm++ {
		dc := guest.DiskConfig{
			Name: "xvda",
			QueueConfig: blkio.Config{
				Limit:    e0QueueLimit,
				MaxMerge: 128 << 10,
			},
			MaxTransfer: 64 << 10,
		}
		if v == E0Disabled {
			dc.QueueConfig.Controller = blkio.NeverController{}
		}
		rt := p.NewVM(4, 4, dc)
		ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0],
			e0Streams, e0FileSize, e0ChunkSize,
			p.Rng.Fork(fmt.Sprintf("ms%d", vm)))
		ms.Start()
		gens = append(gens, ms)
	}
	p.Kernel.RunUntil(dur)
	dumpTrace(fmt.Sprintf("E0-%s-seed%d", v, seed), p)
	var total float64
	var p999 float64
	var chunks uint64
	for _, g := range gens {
		h := g.Ops().Latency
		total += h.Mean().Milliseconds() * float64(h.Count())
		chunks += h.Count()
		if v := h.Percentile(99.9).Milliseconds(); v > p999 {
			p999 = v
		}
	}
	mean := 0.0
	if chunks > 0 {
		mean = total / float64(chunks)
	}
	return e0Point{meanMs: mean, p999Ms: p999, chunks: chunks}
}

func init() {
	register(Runner{
		ID:       "E0",
		Describe: "Sec. 2 motivation: falsely triggered congestion avoidance on concurrent streams",
		Run:      RunE0,
	})
}
