package federation

// The placement engine: hard constraints filter, weighted soft
// preferences rank. The shape follows the policy engines of multi-host
// schedulers (hard feasibility + normalized weighted scoring with
// enforce/permissive modes); docs/CLUSTER.md §3 is the normative
// description, including the worked example the tests pin down.

import "iorchestra/internal/gstate"

// Mode selects how placement treats infeasibility.
type Mode int

const (
	// Enforce rejects a request no feasible host can take.
	Enforce Mode = iota
	// Permissive falls back to the least-loaded live host when no host
	// is feasible — liveness stays a hard constraint even here.
	Permissive
)

// Policy parameterizes placement scoring.
type Policy struct {
	// Mode selects enforce or permissive handling of infeasibility.
	Mode Mode
	// Overcommit scales each host's VCPU capacity: a host fits a request
	// while activeVCPUs + request <= cores × Overcommit (default 1.0).
	Overcommit float64
	// QueueWeight, UtilWeight and LatencyWeight are the soft-preference
	// weights over queue depth, device utilization and host-path p99
	// latency (defaults 0.4, 0.4, 0.2). Each metric is normalized by the
	// maximum over the feasible candidates, so weights compare like with
	// like regardless of units.
	QueueWeight   float64
	UtilWeight    float64
	LatencyWeight float64
	// TierWeight is the gold-spread preference (default 0.2): a gold
	// request favors hosts holding fewer gold guests, so the strongest
	// tier does not concentrate on one hypervisor. It only contributes
	// for gold requests — untiered and weaker-tier requests score
	// exactly as before tiering existed.
	TierWeight float64
}

func (p *Policy) fillDefaults() {
	if p.Overcommit <= 0 {
		p.Overcommit = 1.0
	}
	if p.QueueWeight == 0 && p.UtilWeight == 0 && p.LatencyWeight == 0 {
		p.QueueWeight, p.UtilWeight, p.LatencyWeight = 0.4, 0.4, 0.2
	}
	if p.TierWeight == 0 {
		p.TierWeight = 0.2
	}
}

// Request is one guest admission request.
type Request struct {
	// Guest is the cluster-wide guest uid.
	Guest string
	// VCPUs is the capacity ask (= GB of memory in the paper's sizing).
	VCPUs int
	// Class, when non-empty, must match the host's domain class for the
	// host to be feasible (a hard constraint, relaxed only by the
	// permissive fallback).
	Class string
	// Tier, when non-empty, is the guest's SLA tier ("gold", "silver",
	// "bronze"; internal/gstate's taxonomy). The host must admit the
	// tier — publish it under its registry /tiers subtree — for the host
	// to be feasible; gold requests additionally prefer hosts with fewer
	// gold guests (see Policy.TierWeight).
	Tier string
}

// HostStats is one candidate's scoring input, as read from the registry
// (Federation) or any other source (clusterd's one-shot scoring).
type HostStats struct {
	ID          string
	Live        bool
	Cores       int
	Class       string
	ActiveVCPUs int
	QueueDepth  int
	Util        float64
	P99Ms       float64
	// TierCounts is the host's per-tier admitted-guest census as
	// published under /cluster/hypervisors/<id>/tiers: a key's presence
	// declares the host admits that tier (even at count 0), its value is
	// how many such guests the host currently holds. A nil map is a host
	// that predates tiering — feasible only for untiered requests.
	TierCounts map[string]int
}

// AdmitsTier reports whether the host declares capability for tier.
func (h HostStats) AdmitsTier(tier string) bool {
	_, ok := h.TierCounts[tier]
	return ok
}

// HostScore is one candidate's scoring outcome.
type HostScore struct {
	HostStats
	// Feasible reports whether every hard constraint passed; Reason
	// names the first failed constraint ("dead", "capacity", "class",
	// "tier").
	Feasible bool
	Reason   string
	// Score is the weighted soft preference in [0, 1]; only meaningful
	// for feasible hosts.
	Score float64
}

// Placement decision modes recorded in cluster.place traces.
const (
	decisionEnforce    = "enforce"
	decisionPermissive = "permissive"
	decisionFallback   = "fallback"
)

// Rejection reasons recorded in cluster.reject traces.
const (
	rejectNoLiveHost     = "no-live-host"
	rejectNoFeasibleHost = "no-feasible-host"
)

// ScoreHosts scores candidates for req under pol and picks a winner.
// hosts must be sorted by ID (ties break toward the lexicographically
// smaller id, which the sorted scan gives for free). winner is an index
// into the returned scores, -1 for a rejection; mode is the decision
// mode ("enforce", "permissive", "fallback") or a rejection reason.
//
// The function is pure — same inputs, same decision — so the in-sim
// Federation and the wall-clock clusterd share it verbatim.
func ScoreHosts(pol Policy, req Request, hosts []HostStats) (scores []HostScore, winner int, mode string) {
	pol.fillDefaults()
	scores = make([]HostScore, len(hosts))
	anyLive := false
	// Hard constraints first: liveness, capacity, class, tier.
	for i, h := range hosts {
		s := HostScore{HostStats: h}
		switch {
		case !h.Live:
			s.Reason = "dead"
		case float64(h.ActiveVCPUs+req.VCPUs) > float64(h.Cores)*pol.Overcommit:
			s.Reason = "capacity"
		case req.Class != "" && h.Class != req.Class:
			s.Reason = "class"
		case req.Tier != "" && !h.AdmitsTier(req.Tier):
			s.Reason = "tier"
		default:
			s.Feasible = true
		}
		if h.Live {
			anyLive = true
		}
		scores[i] = s
	}
	// Soft preferences over the feasible set: normalize each metric by
	// its maximum among candidates, score = Σ wᵢ·(1 − normᵢ). A metric
	// that is zero everywhere contributes its full weight to everyone
	// (all equal), leaving the tiebreak to the id order.
	var maxQ, maxU, maxP, maxG float64
	goldSpread := req.Tier == string(gstate.Gold)
	for _, s := range scores {
		if !s.Feasible {
			continue
		}
		maxQ = maxf(maxQ, float64(s.QueueDepth))
		maxU = maxf(maxU, s.Util)
		maxP = maxf(maxP, s.P99Ms)
		if goldSpread {
			maxG = maxf(maxG, float64(s.TierCounts[req.Tier]))
		}
	}
	winner = -1
	for i := range scores {
		s := &scores[i]
		if !s.Feasible {
			continue
		}
		s.Score = pol.QueueWeight*(1-norm(float64(s.QueueDepth), maxQ)) +
			pol.UtilWeight*(1-norm(s.Util, maxU)) +
			pol.LatencyWeight*(1-norm(s.P99Ms, maxP))
		if goldSpread {
			// Spread gold: prefer hosts holding fewer gold guests.
			s.Score += pol.TierWeight * (1 - norm(float64(s.TierCounts[req.Tier]), maxG))
		}
		if winner < 0 || s.Score > scores[winner].Score {
			winner = i
		}
	}
	if winner >= 0 {
		if pol.Mode == Permissive {
			return scores, winner, decisionPermissive
		}
		return scores, winner, decisionEnforce
	}
	// Permissive fallback: the most-headroom live host takes the guest
	// anyway. Liveness is never relaxed — a dead host cannot take work.
	if pol.Mode == Permissive && anyLive {
		for i, s := range scores {
			if !s.Live {
				continue
			}
			if winner < 0 || headroom(s.HostStats, pol) > headroom(scores[winner].HostStats, pol) {
				winner = i
			}
		}
		return scores, winner, decisionFallback
	}
	if !anyLive {
		return scores, -1, rejectNoLiveHost
	}
	return scores, -1, rejectNoFeasibleHost
}

// headroom is a host's remaining overcommitted VCPU capacity (may be
// negative under permissive fallback pressure).
func headroom(h HostStats, pol Policy) float64 {
	return float64(h.Cores)*pol.Overcommit - float64(h.ActiveVCPUs)
}

// norm scales v into [0, 1] by max (0 when the whole candidate set is 0).
func norm(v, max float64) float64 {
	if max <= 0 {
		return 0
	}
	return v / max
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
