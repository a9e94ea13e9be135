package core

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
}

// Counters snapshots every counter in one call. It is the only counter
// read surface.
func (m *Manager) Counters() Counters {
	var c Counters
	if fc := m.flush; fc != nil {
		c.FlushNotices = fc.notices
		c.FlushTimeouts = fc.timeouts
	}
	if cc := m.congest; cc != nil {
		c.Vetoes = cc.vetoes
		c.Confirms = cc.confirms
		c.Relieves = cc.relieves
		c.ReleaseRetries = cc.releaseRetries
		c.ReleaseTimeouts = cc.releaseTimeouts
		c.HoldTimeouts = cc.holdTimeouts
	}
	if sc := m.cosched; sc != nil {
		c.CoschedRuns = sc.runs
	}
	if gc := m.gstate; gc != nil {
		c.GStateDemotes = gc.gstateDemotes
		c.GStatePromotes = gc.gstatePromotes
		c.SLAViolations = gc.gstateViolations
		c.GStateAdmits = gc.gstateAdmits
		c.GStateDefers = gc.gstateDefers
	}
	c.HeartbeatMisses = m.live.heartbeatMisses
	c.Fallbacks = m.live.fallbacks
	c.Restores = m.live.restores
	return c
}
