package gstate

import "iorchestra/internal/store"

// State is one discrete performance state, G0 (full speed) down to G3
// (deep throttle) — IOTune's elastic-driver ladder. A state maps to a
// proportional-share weight at the host cgroup and a congestion-
// threshold scale inside the guest.
type State int

// The four G-states.
const (
	G0 State = iota // full speed
	G1              // light throttle
	G2              // heavy throttle
	G3              // deep throttle
)

// String names the state.
func (s State) String() string {
	switch s {
	case G0:
		return "G0"
	case G1:
		return "G1"
	case G2:
		return "G2"
	case G3:
		return "G3"
	}
	return "G?"
}

// Weight is the state's fraction of full-speed device access: the
// proportional-share weight the controller applies at the host cgroup
// (G0 guests keep the cgroup default of 1.0) and the scale the guest
// driver applies to its congestion thresholds.
func (s State) Weight() float64 {
	switch s {
	case G0:
		return 1.0
	case G1:
		return 0.6
	case G2:
		return 0.35
	}
	return 0.15
}

// Floor is the deepest state a tier may be demoted to: gold is never
// pushed past a light throttle, bronze absorbs the full ladder. The
// asymmetry is the admission-control contract — bronze degrades before
// silver before gold.
func (t Tier) Floor() State {
	switch t {
	case Gold:
		return G1
	case Silver:
		return G2
	}
	return G3
}

// Machine tracks every admitted guest's tier and current G-state and
// picks demotion/promotion victims deterministically. It is pure
// bookkeeping: the controller owns measurements, hysteresis and
// actuation.
type Machine struct {
	guests map[store.DomID]*slot
}

type slot struct {
	tier  Tier
	sla   SLA
	state State
}

// NewMachine returns an empty machine.
func NewMachine() *Machine {
	return &Machine{guests: map[store.DomID]*slot{}}
}

// Add admits a guest at G0 with its declared tier and targets. Re-adding
// an existing guest resets it to G0.
func (ma *Machine) Add(dom store.DomID, tier Tier, sla SLA) {
	ma.guests[dom] = &slot{tier: tier, sla: sla, state: G0}
}

// Remove forgets a guest; safe for guests never added.
func (ma *Machine) Remove(dom store.DomID) { delete(ma.guests, dom) }

// Len reports the number of admitted guests.
func (ma *Machine) Len() int { return len(ma.guests) }

// Tier reports dom's tier (Bronze for unknown guests).
func (ma *Machine) Tier(dom store.DomID) Tier {
	if s := ma.guests[dom]; s != nil {
		return s.tier
	}
	return Bronze
}

// SLA reports dom's admitted targets (bronze defaults for unknown).
func (ma *Machine) SLA(dom store.DomID) SLA {
	if s := ma.guests[dom]; s != nil {
		return s.sla
	}
	return DefaultSLA(Bronze)
}

// State reports dom's current G-state (G0 for unknown guests).
func (ma *Machine) State(dom store.DomID) State {
	if s := ma.guests[dom]; s != nil {
		return s.state
	}
	return G0
}

// Doms lists admitted guests in ascending domain order.
func (ma *Machine) Doms() []store.DomID { return sortedDoms(ma.guests) }

// Demote picks and applies one demotion step, returning the victim and
// its new state. Victim order: the weakest tier first (bronze before
// silver before gold), within a tier the least-demoted guest first — so
// pressure spreads across a tier before any one guest hits the floor —
// ties to the lowest domain id. Guests already at their tier's floor
// are never picked; ok=false means every guest is floored.
func (ma *Machine) Demote() (dom store.DomID, st State, ok bool) {
	var victim *slot
	for _, d := range sortedDoms(ma.guests) {
		s := ma.guests[d]
		if s.state >= s.tier.Floor() {
			continue
		}
		if victim == nil ||
			s.tier.Rank() < victim.tier.Rank() ||
			(s.tier.Rank() == victim.tier.Rank() && s.state < victim.state) {
			victim, dom = s, d
		}
	}
	if victim == nil {
		return 0, G0, false
	}
	victim.state++
	return dom, victim.state, true
}

// Promote picks and applies one promotion step, returning the guest and
// its new state. Mirror order of Demote: the strongest tier first (gold
// recovers before silver before bronze), within a tier the most-demoted
// guest first, ties to the lowest domain id. ok=false means every guest
// already runs at G0.
func (ma *Machine) Promote() (dom store.DomID, st State, ok bool) {
	var pick *slot
	for _, d := range sortedDoms(ma.guests) {
		s := ma.guests[d]
		if s.state == G0 {
			continue
		}
		if pick == nil ||
			s.tier.Rank() > pick.tier.Rank() ||
			(s.tier.Rank() == pick.tier.Rank() && s.state > pick.state) {
			pick, dom = s, d
		}
	}
	if pick == nil {
		return 0, G0, false
	}
	pick.state--
	return dom, pick.state, true
}
