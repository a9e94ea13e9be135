package core

import (
	"slices"

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

	// Per-tick scratch, reused so a warm update allocates only the values
	// it writes: the guests in dom order and the per-core share sums.
	doms   []store.DomID
	shares []float64
}

func newCoschedController(m *Manager) *coschedController {
	cc := &coschedController{
		m:   m,
		cfg: &m.cfg,
		mon: m.h.Monitor(),
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
	rec := trace.Record{Kind: trace.KindCoschedUpdate, Weight: ratio}
	if m.h.Recorder() != nil {
		// The host keeps records (m.rec is count-only otherwise), and lat
		// is the Monitor's buffer: the record gets its own copy.
		rec.CoreLatency = slices.Clone(lat)
	}
	m.rec.Record(rec)
	cc.doms = sortedDomIDs(cc.doms[:0], m.drivers)

	// Weight targets: fraction on socket i ∝ 1/L_i (the paper's inverse-
	// proportional distribution). Published only when some core is
	// genuinely contended; otherwise placement is left alone.
	var invSum float64
	for _, l := range lat {
		invSum += 1 / l
	}
	contended := maxOf(lat) >= coschedMinLatency.Seconds()
	for _, dom := range cc.doms {
		drv := m.drivers[dom]
		if !contended || len(drv.sockets) < 2 || drv.coschedOff || !m.live.cooperative(drv) {
			continue
		}
		for i := range drv.sockets {
			sk := &drv.sockets[i]
			if s := sk.socket; s >= 0 && s < len(lat) {
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
				m.st.WriteFloatCursor(store.Dom0, &sk.target, f)
			}
		}
	}

	// Shares: S_SKT = W_SKT / ΣP · S^(VM), with S^(VM) split equally
	// across enabled guests.
	vmShare := 1.0 / float64(len(m.drivers))
	bwMax := cc.mon.CapacityBps()
	if len(cc.shares) != len(cores) {
		cc.shares = make([]float64, len(cores))
	}
	shares := cc.shares
	clear(shares)
	for _, dom := range cc.doms {
		drv := m.drivers[dom]
		if drv.coschedOff || drv.fellBack {
			// Fallback guests keep their last-applied static weights
			// (Algorithm 3 degradation) — their stale store state must
			// not keep steering quanta.
			continue
		}
		totalW, _ := m.st.ReadFloatCursor(store.Dom0, &drv.totalWeight, 0)
		if totalW <= 0 {
			continue
		}
		for i := range drv.sockets {
			sk := &drv.sockets[i]
			w, _ := m.st.ReadFloatCursor(store.Dom0, &sk.weight, 0)
			sSkt := w / totalW * vmShare
			m.st.WriteFloatCursor(store.Dom0, &sk.share, sSkt)
			if s := sk.socket; s >= 0 && s < len(cores) {
				// Q_i = BWmax · S_SKT, scaled to a 1 ms round.
				cores[s].SetQuantum(dom, bwMax*sSkt/1000)
				shares[s] += sSkt
			}
		}
	}
	// The sum of shares on a socket is its I/O core's weight at the
	// device (Sec. 3.3: "cgroups with these I/O cores' weights").
	for i, c := range cores {
		w := shares[i]
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
