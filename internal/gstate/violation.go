package gstate

import (
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Meter is the SLA-violation instrument: it turns the controller's
// per-tick per-guest violation verdicts into the metrics the tiered
// experiments report — per-tier violation counts (episode onsets) and
// accrued violation-seconds. The controller records every onset as one
// gstate.violation trace event, which is also its count; the meter
// itself is pure accounting.
type Meter struct {
	tiers map[Tier]*tierStats
	open  map[store.DomID]*episode
}

type tierStats struct {
	violations uint64
	violNanos  float64
}

type episode struct {
	tier Tier
	last sim.Time
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{tiers: map[Tier]*tierStats{}, open: map[store.DomID]*episode{}}
}

func (me *Meter) tier(t Tier) *tierStats {
	ts := me.tiers[t]
	if ts == nil {
		ts = &tierStats{}
		me.tiers[t] = ts
	}
	return ts
}

// Observe folds one verdict in: violating opens (or extends) dom's
// episode, accruing wall time since the last observation; a clean
// verdict closes any open episode. It reports whether this observation
// opened a new episode — the onset the controller traces and counts.
func (me *Meter) Observe(dom store.DomID, t Tier, violating bool, now sim.Time) (onset bool) {
	ep := me.open[dom]
	if violating {
		if ep == nil {
			me.open[dom] = &episode{tier: t, last: now}
			me.tier(t).violations++
			return true
		}
		me.tier(ep.tier).violNanos += float64(now - ep.last)
		ep.last = now
		return false
	}
	if ep != nil {
		me.close(dom, ep, now)
	}
	return false
}

// Forget closes dom's open episode (accruing up to now) and drops it —
// the detach path, so a removed guest's half-open violation still lands
// in the books.
func (me *Meter) Forget(dom store.DomID, now sim.Time) {
	if ep := me.open[dom]; ep != nil {
		me.close(dom, ep, now)
	}
}

// CloseAll closes every open episode at now — called at the end of an
// experiment so in-flight violation time is counted.
func (me *Meter) CloseAll(now sim.Time) {
	for _, dom := range sortedDoms(me.open) {
		me.close(dom, me.open[dom], now)
	}
}

func (me *Meter) close(dom store.DomID, ep *episode, now sim.Time) {
	ts := me.tier(ep.tier)
	ts.violNanos += float64(now - ep.last)
	delete(me.open, dom)
}

// AnyViolating reports whether any guest of tier t is currently in
// violation — the admission gate's input (new bronze arrivals are
// deferred while gold is violating).
func (me *Meter) AnyViolating(t Tier) bool {
	for _, ep := range me.open {
		if ep.tier == t {
			return true
		}
	}
	return false
}

// Violations reports the number of violation episodes opened for tier t.
func (me *Meter) Violations(t Tier) uint64 {
	if ts := me.tiers[t]; ts != nil {
		return ts.violations
	}
	return 0
}

// ViolationSeconds reports tier t's total accrued violation time in
// seconds (open episodes count up to their last observation; call
// CloseAll first for final numbers).
func (me *Meter) ViolationSeconds(t Tier) float64 {
	if ts := me.tiers[t]; ts != nil {
		return ts.violNanos / 1e9
	}
	return 0
}
