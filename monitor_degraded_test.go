package iorchestra

// Monitor measurement coverage under degraded devices: a slow RAID
// member (member=INDEX:FACTOR fault, docs/FAULTS.md) must surface
// through the sanctioned Monitor read surface — HostPathP99 from the
// recorder's host-path histogram and the per-core MeanLatency samples
// of CoreSnapshot — because those are the host-health inputs a cluster
// registry entry carries (docs/CLUSTER.md §2). A degradation the Monitor
// cannot see is one no policy can react to.

import (
	"testing"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
)

// monitorDegradedRun drives a fixed congestion-prone population on the
// dedicated-core SDC topology (the only mode with per-core latency
// classes) and returns the platform for Monitor inspection.
func monitorDegradedRun(t *testing.T, faultSpec string, extra ...Option) *Platform {
	t.Helper()
	opts := append([]Option{WithTracing(1 << 18)}, extra...)
	if faultSpec != "" {
		spec, err := ParseFaultSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithFaults(spec))
	}
	p := NewPlatform(SystemSDC, 99, opts...)
	congestProneVM(p, 0)
	congestProneVM(p, 1)
	p.RunFor(4 * Second)
	if d := p.Trace.Dropped(); d > 0 {
		t.Fatalf("trace ring evicted %d records; raise the cap", d)
	}
	return p
}

// TestMonitorHostPathP99UnderSlowMember pins that a slow member inflates
// the Monitor's p99 host-path latency relative to the same seed healthy.
func TestMonitorHostPathP99UnderSlowMember(t *testing.T) {
	healthy := monitorDegradedRun(t, "")
	degraded := monitorDegradedRun(t, "member=0:8")

	hp99 := healthy.Host.Monitor().HostPathP99()
	dp99 := degraded.Host.Monitor().HostPathP99()
	if hp99 <= 0 {
		t.Fatalf("healthy HostPathP99 = %v, want > 0 (tracing is on and I/O completed)", hp99)
	}
	if dp99 <= hp99 {
		t.Fatalf("slow member did not inflate HostPathP99: healthy %v, degraded %v", hp99, dp99)
	}
}

// maxCoreLatency samples the per-class (per dedicated I/O core)
// trailing-window mean latencies and returns the worst, failing on any
// class that reports no traffic or a non-positive mean.
func maxCoreLatency(t *testing.T, p *Platform) float64 {
	t.Helper()
	cs := p.Host.Monitor().CoreSnapshot(p.Kernel.Now())
	if !cs.AnyTraffic {
		t.Fatal("no I/O core processed any request")
	}
	if len(cs.Latencies) == 0 {
		t.Fatal("CoreSnapshot has no latency classes on the dedicated-core topology")
	}
	worst := 0.0
	for i, l := range cs.Latencies {
		if l <= 0 {
			t.Fatalf("core %d mean latency = %v, want > 0 under sustained streams", i, l)
		}
		if l > worst {
			worst = l
		}
	}
	return worst
}

// TestMonitorCoreLatencyClasses pins the per-class MeanLatency surface:
// a core-side bottleneck (expensive polling cores) must raise the
// per-class means well above the 100µs idle floor, while a device-side
// slow member must NOT be misattributed to the cores — its per-class
// means stay at the healthy level even as HostPathP99 inflates (pinned
// above). The split is what lets a controller tell "cores are the
// bottleneck" from "the array is degraded".
func TestMonitorCoreLatencyClasses(t *testing.T) {
	healthy := maxCoreLatency(t, monitorDegradedRun(t, ""))
	slowCores := maxCoreLatency(t, monitorDegradedRun(t, "",
		WithHostConfig(hypervisor.Config{IOCoreCostPerReq: 2 * sim.Millisecond})))
	slowMember := maxCoreLatency(t, monitorDegradedRun(t, "member=0:8"))

	if slowCores <= 2*healthy {
		t.Fatalf("expensive cores did not raise per-class mean latency: healthy %g, slow cores %g", healthy, slowCores)
	}
	if slowMember > 1.5*healthy {
		t.Fatalf("device-side slow member misattributed to the cores: healthy %g, slow member %g", healthy, slowMember)
	}
}
