package core

import (
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// coschedController is Sec. 3.3, inter-domain I/O co-scheduling: it
// samples per-core latencies through the Monitor, publishes
// redistribution targets for cross-socket VMs (inverse-proportional to
// latency), computes per-VM per-socket I/O shares, and actuates DRR
// quanta on the I/O cores and cgroup weights at the device.
type coschedController struct {
	m   *Manager
	cfg *ManagerConfig
	mon *hypervisor.Monitor

	sample cadence

	lastRatio float64
	lastApply sim.Time
	off       map[store.DomID]bool
}

func newCoschedController(m *Manager) *coschedController {
	cc := &coschedController{
		m:   m,
		cfg: &m.cfg,
		mon: m.h.Monitor(),
		off: map[store.DomID]bool{},
	}
	// Sample faster than the apply cadence so the >50 %-change trigger
	// can fire early, as the paper specifies.
	period := m.cfg.CoschedInterval / 5
	if period <= 0 {
		period = 200 * sim.Millisecond
	}
	cc.sample = cadence{k: m.k, period: period, tick: cc.coschedTick}
	return cc
}

func (cc *coschedController) Name() string { return "cosched" }

// Attach starts the sampling cadence: a new guest may immediately shift
// the per-core latency distribution.
func (cc *coschedController) Attach(rt *hypervisor.GuestRuntime) { cc.sample.arm() }

// Detach forgets the guest's co-scheduling exclusion flag.
func (cc *coschedController) Detach(dom store.DomID) { delete(cc.off, dom) }

// Routes: guest-published per-socket weights and the share denominator;
// any change re-arms sampling.
func (cc *coschedController) Routes() Routes {
	return Routes{
		DomainKeys:     []string{keyTotalWeight},
		DomainPrefixes: []string{keyWeightPrefix + "/"},
	}
}

func (cc *coschedController) OnStoreEvent(ev StoreEvent) { cc.sample.arm() }

// OnFallback: nothing to unstick — the per-tick loops below skip
// fallen-back guests, leaving their last-applied static weights in place
// (Algorithm 3 degradation).
func (cc *coschedController) OnFallback(dom store.DomID) {}

// OnRestore: the next sample naturally folds the guest back in.
func (cc *coschedController) OnRestore(dom store.DomID) {}

// disable excludes one guest from co-scheduling decisions (weight
// targets and quanta); ablation experiments use it to hold a guest's
// process placement static on an otherwise identical platform.
func (cc *coschedController) disable(dom store.DomID) { cc.off[dom] = true }

// coschedTick samples per-core latencies, publishes redistribution targets
// for cross-socket VMs, computes per-VM per-socket I/O shares, and applies
// DRR quanta and cgroup weights. It reports whether co-scheduling should
// keep sampling (any I/O-core traffic or cross-socket guests present).
func (cc *coschedController) coschedTick() bool {
	m := cc.m
	cores := m.h.IOCores()
	now := m.k.Now()
	if len(cores) == 0 || len(m.drivers) == 0 {
		return false
	}
	// Monitoring module: collect L_i per core.
	cs := cc.mon.CoreSnapshot(now)
	lat := cs.Latencies
	// Change detection on the max/min latency ratio.
	ratio := maxOf(lat) / minOf(lat)
	due := now-cc.lastApply >= cc.cfg.CoschedInterval
	changed := cc.lastRatio > 0 && relDelta(ratio, cc.lastRatio) > coschedChangeFrac
	if !due && !changed {
		return cs.AnyTraffic || m.crossSocketGuestExists()
	}
	cc.lastApply = now
	cc.lastRatio = ratio
	m.rec.Record(trace.Record{
		Kind:        trace.KindCoschedUpdate,
		CoreLatency: append([]float64(nil), lat...),
		Weight:      ratio,
	})

	// Weight targets: fraction on socket i ∝ 1/L_i (the paper's inverse-
	// proportional distribution). Published only when some core is
	// genuinely contended; otherwise placement is left alone.
	var invSum float64
	for _, l := range lat {
		invSum += 1 / l
	}
	contended := maxOf(lat) >= coschedMinLatency.Seconds()
	for _, dom := range sortedDomIDs(m.drivers) {
		drv := m.drivers[dom]
		if !contended || len(drv.g.Sockets()) < 2 || cc.off[dom] || !m.live.cooperative(dom) {
			continue
		}
		for _, s := range drv.g.Sockets() {
			if s >= 0 && s < len(lat) {
				f := (1 / lat[s]) / invSum
				// Keep every socket carrying some share so the
				// distribution converges instead of oscillating between
				// extremes.
				if f < 0.1 {
					f = 0.1
				}
				if f > 0.9 {
					f = 0.9
				}
				m.st.WriteFloat(store.Dom0, store.DomainPath(dom)+"/"+socketKey(keyTargetPrefix, s), f)
			}
		}
	}

	// Shares: S_SKT = W_SKT / ΣP · S^(VM); equal S^(VM) across enabled
	// guests unless overridden in the store.
	nGuests := len(m.drivers)
	bwMax := cc.mon.CapacityBps()
	type coreShare struct{ sum float64 }
	shares := make([]coreShare, len(cores))
	for _, dom := range sortedDomIDs(m.drivers) {
		drv := m.drivers[dom]
		if cc.off[dom] || m.live.inFallback(dom) {
			// Fallback guests keep their last-applied static weights
			// (Algorithm 3 degradation) — their stale store state must
			// not keep steering quanta.
			continue
		}
		base := store.DomainPath(dom)
		vmShare, _ := m.st.ReadFloat(store.Dom0, base+"/"+keyVMShare, 1.0/float64(nGuests))
		totalW, _ := m.st.ReadFloat(store.Dom0, base+"/"+keyTotalWeight, 0)
		if totalW <= 0 {
			continue
		}
		for _, s := range drv.g.Sockets() {
			w, _ := m.st.ReadFloat(store.Dom0, base+"/"+socketKey(keyWeightPrefix, s), 0)
			sSkt := w / totalW * vmShare
			m.st.WriteFloat(store.Dom0, base+"/"+socketKey(keySharePrefix, s), sSkt)
			if s >= 0 && s < len(cores) {
				// Q_i = BWmax · S_SKT, scaled to a 1 ms round.
				cores[s].SetQuantum(dom, bwMax*sSkt/1000)
				shares[s].sum += sSkt
			}
		}
	}
	// The sum of shares on a socket is its I/O core's weight at the
	// device (Sec. 3.3: "cgroups with these I/O cores' weights").
	for i, c := range cores {
		w := shares[i].sum
		if w <= 0 {
			w = 0.01
		}
		m.h.SetClassWeight(c.ID(), w)
	}
	return cs.AnyTraffic || m.crossSocketGuestExists()
}

func maxOf(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x > v {
			v = x
		}
	}
	return v
}

func minOf(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if x < v {
			v = x
		}
	}
	return v
}

func relDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 0
	}
	return d / b
}
