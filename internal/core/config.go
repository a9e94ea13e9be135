package core

import "iorchestra/internal/sim"

// Policies selects which collaborative functions the manager runs; the
// paper's ablation experiments enable them one at a time (Sec. 5.3–5.5).
type Policies struct {
	Flush      bool // Algorithm 1: cross-domain dirty-page flush control
	Congestion bool // Algorithm 2: collaborative congestion control
	Cosched    bool // Sec. 3.3: inter-domain I/O co-scheduling
	GState     bool // elastic G-states: tiered-SLA performance states (docs/GSTATES.md)
}

// All enables every paper policy — the full IOrchestra configuration.
// GState is a post-paper extension and stays opt-in: it assumes the
// backend I/O model and is unsupported alongside Cosched, which drives
// the same cgroup weights.
func All() Policies { return Policies{Flush: true, Congestion: true, Cosched: true} }

// ManagerConfig tunes the hypervisor-side modules. Only parameters that
// an experiment, benchmark workload or test sets to a second value are
// fields; everything else is a constant below (docs/ARCHITECTURE.md,
// "Configuration surface").
type ManagerConfig struct {
	// FlushUtilFrac: flush when device bandwidth is below this fraction
	// of capacity (paper: one tenth).
	FlushUtilFrac float64
	// FlushCheckInterval paces idle-bandwidth checks while dirty VMs exist.
	FlushCheckInterval sim.Duration
	// FlushTimeout abandons an unanswered flush_now.
	FlushTimeout sim.Duration
	// MinFlushBytes: do not bother a guest whose dirty set is smaller
	// (avoids churning sync() for crumbs).
	MinFlushBytes int64
	// FlushCooldown spaces successive flush notices.
	FlushCooldown sim.Duration
	// ReleaseStaggerMax is the FIFO wake-up stagger bound (paper: 0–99 ms).
	ReleaseStaggerMax sim.Duration
	// CoschedInterval is the weight-update cadence (paper: every second).
	CoschedInterval sim.Duration
	// FlushMaxRetries bounds re-issued flush orders per (guest, disk)
	// after a FlushTimeout expiry before the guest falls back.
	FlushMaxRetries int
	// FallbackPenalty is how long a fallen-back guest must heartbeat
	// again before it is restored (a driver re-registration restores it
	// immediately).
	FallbackPenalty sim.Duration
}

const (
	// congestionCheckInterval paces host-relief checks while VMs are held.
	congestionCheckInterval = 5 * sim.Millisecond
	// coschedChangeFrac forces an early weight update when the
	// core-latency ratio shifts by more than this fraction (paper: 50 %).
	coschedChangeFrac = 0.5
	// coschedMinLatency gates process redistribution: below this on-core
	// latency there is no contention worth rebalancing, and migrations
	// would only disturb cache and CPU co-location.
	coschedMinLatency = 150 * sim.Microsecond

	// Elastic G-states (docs/GSTATES.md).

	// gstateInterval paces the G-state control loop.
	gstateInterval = 100 * sim.Millisecond
	// gstateHighUtil is the device-utilization fraction at or above which
	// a tick counts as pressure; host congestion counts regardless.
	gstateHighUtil = 0.85
	// gstateLowUtil is the utilization fraction at or below which an
	// uncongested tick counts as relief. The band between the two
	// thresholds is neutral and resets both hysteresis counters.
	gstateLowUtil = 0.55
	// gstateDemoteAfter consecutive pressure ticks trigger one demotion
	// step; gstatePromoteAfter consecutive relief ticks one promotion —
	// recovery is deliberately slower so the ladder does not oscillate.
	gstateDemoteAfter  = 3
	gstatePromoteAfter = 5

	// Graceful degradation (docs/FAULTS.md). The paper's host waits on
	// guest cooperation; these bounds make every wait finite so one bad
	// guest can never stall a loop or starve siblings.

	// heartbeatTimeout demotes a guest whose iorchestra/heartbeat is
	// older than this to Baseline behavior: three missed 100 ms beats
	// plus delivery slack.
	heartbeatTimeout = 350 * sim.Millisecond
	// releaseAckTimeout re-publishes an unacknowledged release_request
	// (the ack is the guest's reset to 0), at most releaseMaxRetries
	// times before the guest falls back.
	releaseAckTimeout = 100 * sim.Millisecond
	releaseMaxRetries = 3
	// holdDeadline force-releases a guest held in congestion avoidance
	// this long even if the host still looks congested — the safety
	// valve against a stuck device starving held guests forever.
	holdDeadline = 5 * sim.Second
)

func (c *ManagerConfig) fillDefaults() {
	if c.FlushUtilFrac <= 0 {
		c.FlushUtilFrac = 0.1
	}
	if c.FlushCheckInterval <= 0 {
		c.FlushCheckInterval = 50 * sim.Millisecond
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = sim.Second
	}
	if c.MinFlushBytes <= 0 {
		c.MinFlushBytes = 8 << 20
	}
	if c.FlushCooldown <= 0 {
		c.FlushCooldown = 200 * sim.Millisecond
	}
	if c.ReleaseStaggerMax <= 0 {
		c.ReleaseStaggerMax = 99 * sim.Millisecond
	}
	if c.CoschedInterval <= 0 {
		c.CoschedInterval = sim.Second
	}
	if c.FlushMaxRetries <= 0 {
		c.FlushMaxRetries = 2
	}
	if c.FallbackPenalty <= 0 {
		c.FallbackPenalty = 2 * sim.Second
	}
}
