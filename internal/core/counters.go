package core

import "iorchestra/internal/trace"

// Counters is a point-in-time snapshot of every management-module
// counter: policy decisions (Sec. 5's measured quantities) and graceful-
// degradation events (docs/FAULTS.md). Zero values are reported for
// policies the manager was built without.
type Counters struct {
	// Algorithm 1: flush control.
	FlushNotices  uint64 // flush_now orders issued
	FlushTimeouts uint64 // orders abandoned at the deadline

	// Algorithm 2: congestion control.
	Vetoes          uint64 // queries answered "host not congested"
	Confirms        uint64 // queries answered "host congested"
	Relieves        uint64 // VMs released on host relief
	ReleaseRetries  uint64 // re-published release_request orders
	ReleaseTimeouts uint64 // releases that exhausted their retries
	HoldTimeouts    uint64 // guests force-released at the hold deadline

	// Sec. 3.3: co-scheduling.
	CoschedRuns uint64 // weight updates applied

	// Elastic G-states (docs/GSTATES.md).
	GStateDemotes  uint64 // guests stepped one G-state deeper
	GStatePromotes uint64 // guests stepped back toward G0
	SLAViolations  uint64 // violation episodes opened (onsets, not seconds)
	GStateAdmits   uint64 // guests admitted (immediate or deferred)
	GStateDefers   uint64 // bronze arrivals parked while gold was violating

	// Liveness middleware.
	HeartbeatMisses uint64 // stale-heartbeat detections
	Fallbacks       uint64 // guests demoted to Baseline behavior
	Restores        uint64 // guests restored to collaborative mode

	// Dispatch.
	OrphanEvents uint64 // store events for a disk the guest's driver does not drive
}

// Counters snapshots every counter in one call. It is the only counter
// read surface. A decision is counted where it is traced: each field is
// the manager's recorder's lifetime count of the kind it names, so the
// two cannot drift. Relieves (a field of its controller) and
// OrphanEvents (the manager's) are plain counts, not trace kinds.
func (m *Manager) Counters() Counters {
	n := m.rec.Count
	c := Counters{
		FlushNotices:  n(trace.KindFlushOrder),
		FlushTimeouts: n(trace.KindFlushTimeout),

		Vetoes:          n(trace.KindCongestVeto),
		Confirms:        n(trace.KindCongestConfirm),
		ReleaseRetries:  n(trace.KindReleaseRetry),
		ReleaseTimeouts: n(trace.KindReleaseTimeout),
		HoldTimeouts:    n(trace.KindHoldTimeout),

		CoschedRuns: n(trace.KindCoschedUpdate),

		GStateDemotes:  n(trace.KindGStateDemote),
		GStatePromotes: n(trace.KindGStatePromote),
		SLAViolations:  n(trace.KindGStateViolation),
		GStateAdmits:   n(trace.KindGStateAdmit),
		GStateDefers:   n(trace.KindGStateDefer),

		HeartbeatMisses: n(trace.KindHeartbeatMiss),
		Fallbacks:       n(trace.KindFallbackEnter),
		Restores:        n(trace.KindFallbackExit),

		OrphanEvents: m.orphanEvents,
	}
	if m.congest != nil {
		c.Relieves = m.congest.relieves
	}
	return c
}
