package store

// This file owns the schema constructors beyond the per-disk tree: the
// /cluster namespace the cluster registry (internal/federation) keeps
// beside the per-domain /local/domain tree, and the per-guest /sla
// subtree the G-state subsystem (internal/gstate) declares tiers under.
// docs/CLUSTER.md and docs/GSTATES.md are the normative references for
// the keys below; docs/STORE_KEYS.md indexes all of them.
//
// Layout:
//
//	/cluster/hypervisors/<id>/...   one registered host: heartbeat,
//	                                capacity and load keys published by
//	                                the iorchestra-clusterd join agent,
//	                                TTL-expired by the registry when the
//	                                heartbeat stalls
//	/cluster/hypervisors/<id>/tiers/<tier>
//	                                per-tier admitted-guest count the
//	                                host's agent publishes for tiered
//	                                placement
//	/cluster/guests/<uid>/...       one cluster-placed guest: the host
//	                                holding it and its placement record
//	/local/domain/<dom>/sla/...     one guest's declared SLA tier and
//	                                targets plus the published G-state
//
// The /cluster namespace is rooted at a Dom0-owned node, so only the
// control plane writes it; guests never see cluster state directly.
// The storekeys rule enforces that raw "/cluster/..." (and
// "/local/domain/...") literals appear only in this package — every
// other package must build paths through these constructors
// (docs/LINTING.md).

// ClusterRoot is the top of the cluster-coordination namespace. Like
// Root it is the only sanctioned spelling of the prefix outside this
// package.
const ClusterRoot = "/cluster"

// HypervisorsPath returns the host-registry directory,
// /cluster/hypervisors; each child is one registered hypervisor.
func HypervisorsPath() string { return ClusterRoot + "/hypervisors" }

// HypervisorPath returns the registry subtree root for one host:
// /cluster/hypervisors/<id>.
func HypervisorPath(id string) string { return HypervisorsPath() + "/" + id }

// HypervisorKey returns the absolute path of one host-registry key:
// /cluster/hypervisors/<id>/<key>.
func HypervisorKey(id, key string) string { return HypervisorPath(id) + "/" + key }

// ClusterGuestsPath returns the guest-placement directory,
// /cluster/guests; each child is one cluster-placed guest.
func ClusterGuestsPath() string { return ClusterRoot + "/guests" }

// ClusterGuestPath returns the placement subtree root for one guest:
// /cluster/guests/<uid>.
func ClusterGuestPath(uid string) string { return ClusterGuestsPath() + "/" + uid }

// ClusterGuestKey returns the absolute path of one guest placement key:
// /cluster/guests/<uid>/<key>.
func ClusterGuestKey(uid, key string) string { return ClusterGuestPath(uid) + "/" + key }

// HypervisorTiersPath returns the per-tier admitted-guest directory for
// one host: /cluster/hypervisors/<id>/tiers. Each child is one SLA tier
// name holding the count of admitted guests in that tier, published by
// the host's agent for tiered placement (docs/GSTATES.md).
func HypervisorTiersPath(id string) string { return HypervisorPath(id) + "/tiers" }

// HypervisorTierKey returns the absolute path of one host's per-tier
// admitted count: /cluster/hypervisors/<id>/tiers/<tier>.
func HypervisorTierKey(id, tier string) string { return HypervisorTiersPath(id) + "/" + tier }

// SLAPath returns the SLA subtree root for a domain,
// /local/domain/<dom>/sla: the guest's declared tier and per-tier
// targets plus the manager-published performance state
// (internal/gstate, docs/GSTATES.md).
func SLAPath(dom DomID) string { return DomainPath(dom) + "/sla" }

// SLAKey returns the absolute path of one SLA key:
// /local/domain/<dom>/sla/<key>.
func SLAKey(dom DomID, key string) string { return SLAPath(dom) + "/" + key }
