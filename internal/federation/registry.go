// Package federation is the cluster registry's schema and the placement
// engine that cmd/iorchestra-clusterd runs: hosts are records under
// /cluster/hypervisors in a shared store, kept fresh by heartbeats and
// TTL-expired by one expirer, and a guest request is scored against
// those records (docs/CLUSTER.md is the normative reference). Every
// helper works over a View, so the same code runs over an in-process
// store (LocalView) or a netstore connection.
package federation

import (
	"strings"

	"iorchestra/internal/gstate"
	"iorchestra/internal/store"
)

// Registry host keys under /cluster/hypervisors/<id>/ (docs/CLUSTER.md
// §2 is normative). Statics are republished with every heartbeat so an
// entry wrongly expired under watch faults heals itself on the next
// beat (lochness-style soft state: the registry is a cache of the
// agents' periodic writes, never the source of truth).
const (
	keyHeartbeat   = "heartbeat"    // monotonic beat counter
	keyCores       = "cores"        // physical cores (capacity input)
	keyClass       = "class"        // domain class ("" = unclassed)
	keyActiveVCPUs = "active_vcpus" // summed VCPUs of resident guests
	keyQueueDepth  = "queue_depth"  // cgroup backlog + device pending
	keyUtil        = "util"         // device utilization fraction [0,1]
	keyP99Ms       = "p99_ms"       // host-path p99 latency, milliseconds
)

// Guest keys under /cluster/guests/<uid>/.
const (
	keyGuestHost  = "host"  // hypervisor holding the guest
	keyGuestVCPUs = "vcpus" // admitted VCPU request
)

// BeatObserved decodes a watch notification under root (the hypervisors
// prefix): it reports the host id when path is a heartbeat arrival —
// the only key that refreshes liveness. Stats churn alone must not keep
// a host alive whose agent died between beats. clusterd's watcher and
// expirer share it, so both agree on what counts as a beat.
func BeatObserved(root, path string) (id string, ok bool) {
	rel, ok := strings.CutPrefix(path, root+"/")
	if !ok {
		return "", false
	}
	id, key, hasKey := strings.Cut(rel, "/")
	return id, hasKey && key == keyHeartbeat
}

// EntryRemoved decodes a watch notification under root: it reports the
// host id when a whole registry entry went away (a TTL expiry or a
// graceful leave). Edge-triggered watches deliver removals as an empty
// value on the entry path itself.
func EntryRemoved(root, path, value string) (id string, ok bool) {
	rel, ok := strings.CutPrefix(path, root+"/")
	if !ok || value != "" {
		return "", false
	}
	id, _, hasKey := strings.Cut(rel, "/")
	return id, !hasKey
}

// --- Registry-entry schema helpers -------------------------------------------
//
// These are the only writers and reader of the /cluster/hypervisors/<id>
// keys; clusterd's roles all go through them, so its join agent and its
// placement can never drift apart on the schema.

// HostLoad is one load sample: the soft-preference inputs placement
// scores on.
type HostLoad struct {
	ActiveVCPUs int
	QueueDepth  int
	Util        float64
	P99Ms       float64
}

// PublishHostStatics writes a host's capacity facts (cores, class).
func PublishHostStatics(v View, id, class string, cores int) {
	v.Write(store.HypervisorKey(id, keyCores), itoa(int64(cores)))
	v.Write(store.HypervisorKey(id, keyClass), class)
}

// PublishHeartbeat writes the monotonic beat counter — the one write
// that refreshes liveness.
func PublishHeartbeat(v View, id string, beat int64) {
	v.Write(store.HypervisorKey(id, keyHeartbeat), itoa(beat))
}

// PublishHostLoad writes a host's load sample.
func PublishHostLoad(v View, id string, l HostLoad) {
	v.Write(store.HypervisorKey(id, keyActiveVCPUs), itoa(int64(l.ActiveVCPUs)))
	v.Write(store.HypervisorKey(id, keyQueueDepth), itoa(int64(l.QueueDepth)))
	v.Write(store.HypervisorKey(id, keyUtil), ftoa(l.Util))
	v.Write(store.HypervisorKey(id, keyP99Ms), ftoa(l.P99Ms))
}

// RecordPlacement writes the guest admission record under
// /cluster/guests/<uid> — the durable outcome of a placement decision
// (clusterd's place -bind).
func RecordPlacement(v View, uid, host string, vcpus int) error {
	if err := v.Write(store.ClusterGuestKey(uid, keyGuestHost), host); err != nil {
		return err
	}
	return v.Write(store.ClusterGuestKey(uid, keyGuestVCPUs), itoa(int64(vcpus)))
}

// PublishTierCounts writes a host's per-tier admitted-guest census
// under /cluster/hypervisors/<id>/tiers: a key's presence declares the
// host admits the tier (even at count 0), the value is how many such
// guests it holds. Written strongest-tier-first for deterministic
// store-write order.
func PublishTierCounts(v View, id string, counts map[string]int) {
	for _, t := range gstate.Tiers() {
		if n, ok := counts[string(t)]; ok {
			v.Write(store.HypervisorTierKey(id, string(t)), itoa(int64(n)))
		}
	}
}

// ReadTierCounts assembles a host's tier census from its registry
// entry; nil when the host publishes no /tiers subtree (an untiered
// host from before tiering existed).
func ReadTierCounts(v View, id string) map[string]int {
	names, err := v.List(store.HypervisorTiersPath(id))
	if err != nil || len(names) == 0 {
		return nil
	}
	counts := make(map[string]int, len(names))
	for _, t := range names {
		counts[t] = int(readInt(v, store.HypervisorTierKey(id, t), 0))
	}
	return counts
}

// ReadHostStats assembles one host's scoring input from its registry
// entry. Liveness is the caller's call — the expirer owns the heartbeat
// clock — so Live is left false here.
func ReadHostStats(v View, id string) HostStats {
	return HostStats{
		ID:          id,
		Cores:       int(readInt(v, store.HypervisorKey(id, keyCores), 0)),
		Class:       readString(v, store.HypervisorKey(id, keyClass), ""),
		ActiveVCPUs: int(readInt(v, store.HypervisorKey(id, keyActiveVCPUs), 0)),
		QueueDepth:  int(readInt(v, store.HypervisorKey(id, keyQueueDepth), 0)),
		Util:        readFloat(v, store.HypervisorKey(id, keyUtil), 0),
		P99Ms:       readFloat(v, store.HypervisorKey(id, keyP99Ms), 0),
		TierCounts:  ReadTierCounts(v, id),
	}
}
