package experiments

import (
	"fmt"

	"iorchestra"
	"iorchestra/internal/cluster"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
)

// arrivalCfg builds the paper's dynamic-VM configuration (Sec. 5.3/5.5):
// Poisson arrivals at λ VMs/min, sizes 2–10 VCPUs (= GB), apps drawn from
// {FS, YCSB1, Cloud9}, FIFO admission, fixed problem sizes.
func arrivalCfg(lambda float64, dur sim.Duration) cluster.ArrivalsConfig {
	return cluster.ArrivalsConfig{
		Lambda:   lambda,
		Duration: dur,
		// Scaled problem sizes: ~1–2 minutes of service per VM, so the
		// host saturates within the sweep and throughput (not arrivals)
		// limits completions, as in the paper's hour-long runs.
		YCSBOps:      100000,
		FSBytes:      4 << 30,
		Cloud9Bursts: 6000,
	}
}

// runArrivalPoint runs one (system, λ) dynamic experiment and reports the
// engine for metric extraction.
func runArrivalPoint(sys iorchestra.System, pol iorchestra.Policies, seed uint64, lambda float64, dur sim.Duration) (*cluster.Arrivals, *iorchestra.Platform) {
	p := tracedPlatform(sys, seed, iorchestra.WithPolicies(pol))
	a := cluster.NewArrivals(p.Kernel, p.Host, arrivalCfg(lambda, dur), cluster.VMHooks{
		OnCreate: func(rt *hypervisor.GuestRuntime) { p.Enable(rt) },
		// Departing VMs must release their manager state (driver, watches,
		// heartbeat ledger, held congestion entries) or the degradation
		// layer would count them as heartbeat-dead forever.
		OnRemove: func(rt *hypervisor.GuestRuntime) { p.Disable(rt) },
	}, p.Rng.Fork("arrivals"))
	a.Start()
	// Run past the arrival window so in-flight VMs can finish.
	p.Kernel.RunUntil(dur + dur/4)
	dumpTrace(fmt.Sprintf("arrivals-%s-%s-lam%g-seed%d", sys, polTag(pol), lambda, seed), p)
	return a, p
}

// arrivalLambdas is the VM arrival-rate axis (per minute) of Table 2 and
// Fig. 10(b,c) / Fig. 11.
var arrivalLambdas = []float64{4, 8, 12, 16, 20}

// RunTable2 reproduces Table 2: aggregate write-throughput improvement of
// IOrchestra's flush policy under dynamic VM arrivals at λ = 4..20/min.
func RunTable2(scale Scale, seed uint64) *Result {
	dur := scale.pick(6*sim.Minute, 30*sim.Minute)
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemIOrchestra}
	g := sweep(seed, 1, func(seed uint64, c []int) float64 {
		a, _ := runArrivalPoint(systems[c[1]], iorchestra.Policies{Flush: true}, seed, arrivalLambdas[c[0]], dur)
		return a.WrittenBytes()
	}, len(arrivalLambdas), len(systems))
	p := Panel{Title: "Table 2: write-throughput improvement at VM arrival rate λ (per minute)",
		XName: "λ", X: arrivalLambdas}
	p.add("improvement", "%.1f%%", func(li int) float64 { return gain(g.one(li, 0), g.one(li, 1)) })
	return &Result{Panels: []Panel{p}}
}

func init() {
	register(Runner{
		ID:       "table2",
		Describe: "Write-throughput improvement under dynamic VM arrivals (flush policy)",
		Run:      RunTable2,
	})
}

// RunFig10bc reproduces Fig. 10(b) and 10(c): with the full IOrchestra
// (dedicated cores + co-scheduling) versus SDC versus baseline under the
// same dynamic arrivals — improvement in completed VMs, and average CPU
// utilization — and Fig. 11, the same runs' I/O throughput.
func RunFig10bc(scale Scale, seed uint64) *Result {
	dur := scale.pick(6*sim.Minute, 30*sim.Minute)
	systems := []iorchestra.System{iorchestra.SystemBaseline, iorchestra.SystemSDC, iorchestra.SystemIOrchestra}
	type point struct{ completed, util, ioBytes float64 }
	g := sweep(seed, 1, func(seed uint64, c []int) point {
		// Sec. 5.5 isolates the co-scheduling function for this experiment.
		a, p := runArrivalPoint(systems[c[1]], iorchestra.Policies{Cosched: true},
			seed, arrivalLambdas[c[0]], dur)
		return point{
			completed: float64(a.Completed()),
			util:      p.Host.CPUUtilization(p.Kernel.Now()),
			ioBytes:   a.IOBytes(),
		}
	}, len(arrivalLambdas), len(systems))

	// panel tabulates systems[from:], each system's y against Baseline's.
	panel := func(title, format string, from int, y func(base, sys point) float64) Panel {
		p := Panel{Title: title, XName: "λ", X: arrivalLambdas}
		for si := from; si < len(systems); si++ {
			p.add(systems[si].String(), format, func(li int) float64 { return y(g.one(li, 0), g.one(li, si)) })
		}
		return p
	}
	return &Result{Panels: []Panel{
		panel("Fig 10(b): improvement in completed VMs vs baseline", "%.1f%%", 1,
			func(base, sys point) float64 { return gain(base.completed, sys.completed) }),
		panel("Fig 10(c): average CPU utilization", "%.0f%%", 0,
			func(_, sys point) float64 { return sys.util * 100 }),
		panel("Fig 11: I/O throughput improvement vs baseline", "%.1f%%", 1,
			func(base, sys point) float64 { return gain(base.ioBytes, sys.ioBytes) }),
	}}
}

func init() {
	register(Runner{
		ID:       "fig10bc",
		Describe: "Dynamic arrivals: completed VMs, CPU utilization, and I/O throughput (also Fig 11)",
		Run:      RunFig10bc,
	})
	register(Runner{
		ID:       "fig11",
		Describe: "I/O throughput improvement at arrival rate λ (alias of fig10bc)",
		Run:      RunFig10bc,
		AliasOf:  "fig10bc",
	})
}
