// Package gstate is the tiered-SLA performance-state subsystem: discrete
// per-guest performance states ("G-states", after IOTune's elastic
// driver — see PAPERS.md) driven by a controller that trades bandwidth
// between SLA tiers under contention.
//
// The package holds the pure model half of the subsystem:
//
//   - the SLA tier taxonomy (gold/silver/bronze) with per-tier targets
//     (minimum bandwidth fraction, p99 latency budget) and the
//     /local/domain/<dom>/sla store schema that declares them per guest;
//   - the G0..G3 state machine with its deterministic demote/promote
//     victim selection (bronze before silver before gold, spread evenly
//     within a tier, ties to the lowest domain);
//   - the SLA-violation meter: per-tier violation counters and
//     violation-seconds accounting with per-episode duration histograms.
//
// The controller that feeds measurements in and actuates states lives in
// internal/core (gstate.go) beside the paper's three policies; it is
// enabled with core.Policies.GState. docs/GSTATES.md is the normative
// reference.
package gstate

import (
	"sort"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Tier is one SLA class. The zero value is not a tier; guests without a
// declared tier default to Bronze at admission.
type Tier string

// The three tiers, strongest first.
const (
	Gold   Tier = "gold"
	Silver Tier = "silver"
	Bronze Tier = "bronze"
)

// Tiers lists the tiers strongest-first — the presentation (and
// promotion-priority) order.
func Tiers() []Tier { return []Tier{Gold, Silver, Bronze} }

// ParseTier maps a store value to a tier, defaulting unknown or empty
// strings to Bronze: an undeclared guest gets the weakest guarantees,
// never accidentally the strongest.
func ParseTier(s string) Tier {
	switch Tier(s) {
	case Gold, Silver:
		return Tier(s)
	}
	return Bronze
}

// Rank orders tiers for victim selection: the lowest rank is demoted
// first and promoted last (Bronze 0, Silver 1, Gold 2).
func (t Tier) Rank() int {
	switch t {
	case Gold:
		return 2
	case Silver:
		return 1
	}
	return 0
}

// SLA is one tier's performance targets. A guest violates its SLA while
// either target is missed (see Meter).
type SLA struct {
	// MinBWFrac is the minimum fraction of full-speed device access the
	// guest is promised: the applied G-state weight must not fall below
	// it. Demoting a guest past this floor is a deliberate, metered
	// violation (the price of protecting stronger tiers).
	MinBWFrac float64
	// P99Budget is the per-request host-path latency budget. The
	// controller evaluates it against a windowed mean of the guest's
	// completion latencies — responsive enough to clear on relief, where
	// a lifetime p99 would stay saturated forever.
	P99Budget sim.Duration
}

// DefaultSLA returns a tier's default targets. Bronze's bandwidth floor
// (0.2) sits above G3's weight (0.15) on purpose: a bronze guest parked
// in G3 accrues violation-seconds, which is exactly what the metric is
// for — the demotion ladder trades metered bronze violations for gold
// headroom.
func DefaultSLA(t Tier) SLA {
	switch t {
	case Gold:
		return SLA{MinBWFrac: 0.5, P99Budget: 25 * sim.Millisecond}
	case Silver:
		return SLA{MinBWFrac: 0.3, P99Budget: 60 * sim.Millisecond}
	}
	return SLA{MinBWFrac: 0.2, P99Budget: 150 * sim.Millisecond}
}

// Store key suffixes, relative to /local/domain/<dom>/sla (build the
// absolute paths with store.SLAKey). docs/STORE_KEYS.md indexes them.
const (
	// KeyTier (string) — the guest's declared tier ("gold", "silver",
	// "bronze"); written by the operator/toolstack before the guest is
	// attached, read once at admission.
	KeyTier = "tier"
	// KeyMinBWFrac (float) — declared minimum bandwidth fraction,
	// overriding the tier default when > 0.
	KeyMinBWFrac = "min_bw_frac"
	// KeyP99Ms (float) — declared p99 latency budget in milliseconds,
	// overriding the tier default when > 0.
	KeyP99Ms = "p99_ms"
)

// PublishSLA declares a guest's tier and targets in the store — the
// toolstack half of the schema, called before the guest is attached so
// admission sees the declaration. Zero-valued SLA fields publish the
// tier defaults.
func PublishSLA(st *store.Store, dom store.DomID, tier Tier, sla SLA) {
	def := DefaultSLA(tier)
	if sla.MinBWFrac <= 0 {
		sla.MinBWFrac = def.MinBWFrac
	}
	if sla.P99Budget <= 0 {
		sla.P99Budget = def.P99Budget
	}
	st.Write(store.Dom0, store.SLAKey(dom, KeyTier), string(tier))
	st.WriteFloat(store.Dom0, store.SLAKey(dom, KeyMinBWFrac), sla.MinBWFrac)
	st.WriteFloat(store.Dom0, store.SLAKey(dom, KeyP99Ms), float64(sla.P99Budget)/1e6)
}

// ReadSLA reads a guest's declared tier and targets, applying tier
// defaults for missing or unparseable keys. A guest with no /sla
// subtree at all reads as (Bronze, bronze defaults).
func ReadSLA(st *store.Store, dom store.DomID) (Tier, SLA) {
	raw, _ := st.Read(store.Dom0, store.SLAKey(dom, KeyTier))
	tier := ParseTier(raw)
	sla := DefaultSLA(tier)
	if f, err := st.ReadFloat(store.Dom0, store.SLAKey(dom, KeyMinBWFrac), 0); err == nil && f > 0 {
		sla.MinBWFrac = f
	}
	if f, err := st.ReadFloat(store.Dom0, store.SLAKey(dom, KeyP99Ms), 0); err == nil && f > 0 {
		sla.P99Budget = sim.Duration(f * 1e6)
	}
	return tier, sla
}

// sortedDoms returns a map's domain keys in ascending order, the
// deterministic iteration every selection loop in this package uses
// (map order would otherwise leak into victim choice and the trace).
func sortedDoms[V any](m map[store.DomID]V) []store.DomID {
	out := make([]store.DomID, 0, len(m))
	for dom := range m {
		out = append(out, dom)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
