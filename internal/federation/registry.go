package federation

import (
	"strconv"
	"strings"

	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
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
	keyGuestHost  = "host"  // hypervisor currently holding the guest
	keyGuestVCPUs = "vcpus" // admitted VCPU request
	keyGuestDom   = "dom"   // domain id on the holding host
)

// Registry tracks cluster membership and liveness from the store: a
// watch on /cluster/hypervisors stamps heartbeat arrivals, and Stale
// compares the stamp age against the TTL. It never writes host entries
// itself — expiry (removal plus trace) is the Federation's (or
// clusterd's expirer's) job, so every removal is accounted.
type Registry struct {
	k        *sim.Kernel
	view     View
	ttl      sim.Duration
	lastBeat map[string]sim.Time
}

// NewRegistry builds a registry over the cluster view with the given
// heartbeat TTL and begins watching membership.
func NewRegistry(k *sim.Kernel, view View, ttl sim.Duration) *Registry {
	r := &Registry{k: k, view: view, ttl: ttl, lastBeat: map[string]sim.Time{}}
	hp := store.HypervisorsPath()
	// A failed watch leaves the registry without arrivals: every host
	// goes stale after one TTL, which is the safe reading of a view that
	// cannot deliver heartbeats.
	view.Watch(hp, func(path, value string) { r.observe(hp, path, value) })
	return r
}

// observe stamps heartbeat arrivals and forgets removed entries. Only
// the heartbeat key refreshes liveness — stats churn alone must not
// keep a host alive whose agent died between beats.
func (r *Registry) observe(hyperRoot, path, value string) {
	if id, ok := BeatObserved(hyperRoot, path); ok {
		r.lastBeat[id] = r.k.Now()
		return
	}
	if id, ok := EntryRemoved(hyperRoot, path, value); ok {
		// The whole entry went away (expiry or a graceful leave).
		delete(r.lastBeat, id)
	}
}

// BeatObserved decodes a watch notification under root (the hypervisors
// prefix): it reports the host id when path is a heartbeat arrival —
// the only key that refreshes liveness. Shared with clusterd's
// wall-clock watcher and expirer so both clocks agree on what counts as
// a beat.
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

// MarkAlive stamps id as just-heard-from — used at join time so a host
// cannot expire in the watch-latency window before its first beat lands.
func (r *Registry) MarkAlive(id string) { r.lastBeat[id] = r.k.Now() }

// Forget drops the liveness stamp for an expired or departed host.
func (r *Registry) Forget(id string) { delete(r.lastBeat, id) }

// Hosts lists the registered hypervisor ids in ascending order (empty
// before the first join).
func (r *Registry) Hosts() []string {
	names, err := r.view.List(store.HypervisorsPath())
	if err != nil {
		return nil
	}
	return names
}

// Live reports whether id's last heartbeat is within the TTL.
func (r *Registry) Live(id string) bool {
	stale, _ := r.Stale(id)
	return !stale
}

// Stale reports whether id's heartbeat has aged past the TTL, and the
// age itself. A host never heard from is stale with age 0 (it may be in
// the registry tree from before this registry started watching).
func (r *Registry) Stale(id string) (bool, sim.Duration) {
	at, ok := r.lastBeat[id]
	if !ok {
		return true, 0
	}
	age := sim.Duration(r.k.Now() - at)
	return age > r.ttl, age
}

// HostAgent is the per-hypervisor publisher: it registers the host in
// the cluster registry and keeps its entry fresh with periodic
// heartbeats carrying capacity and load measurements read through
// hypervisor.Monitor. Stopping the agent (a fault-kill in tests, a
// crashed daemon in production) is what makes the entry TTL-expire.
type HostAgent struct {
	k        *sim.Kernel
	view     View
	id       string
	class    string
	h        *hypervisor.Host
	interval sim.Duration
	beats    int64
	stopped  bool
	tiers    []gstate.Tier // admitted SLA tiers; nil = untiered host
}

// NewHostAgent builds an agent publishing host h as id every interval.
func NewHostAgent(k *sim.Kernel, view View, id, class string, h *hypervisor.Host, interval sim.Duration) *HostAgent {
	return &HostAgent{k: k, view: view, id: id, class: class, h: h, interval: interval}
}

// Start publishes the first beat immediately and schedules the rest.
func (a *HostAgent) Start() {
	a.stopped = false
	a.beat()
}

// Stop halts heartbeating; the registry entry is left to TTL-expire,
// exactly as if the host died.
func (a *HostAgent) Stop() { a.stopped = true }

// Stopped reports whether the agent has been halted.
func (a *HostAgent) Stopped() bool { return a.stopped }

func (a *HostAgent) beat() {
	if a.stopped {
		return
	}
	a.beats++
	a.Publish()
	a.k.After(a.interval, a.beat)
}

// Publish writes the full registry entry: statics (cores, class), the
// heartbeat counter, and the load stats placement scores on. Statics
// ride along so an expired entry heals on the next beat.
func (a *HostAgent) Publish() {
	PublishHostStatics(a.view, a.id, a.class, a.h.TotalCores())
	PublishHeartbeat(a.view, a.id, a.beats)
	a.PublishStats()
}

// PublishStats refreshes only the load keys — called between beats when
// placement or migration just changed the host's occupancy, so scoring
// sees the new load without waiting out the heartbeat interval.
func (a *HostAgent) PublishStats() {
	mon := a.h.Monitor()
	dev := mon.DeviceSnapshot(a.k.Now())
	PublishHostLoad(a.view, a.id, HostLoad{
		ActiveVCPUs: mon.ActiveVCPUs(),
		QueueDepth:  mon.QueueBacklog() + mon.DevPending(),
		Util:        dev.UtilFraction,
		P99Ms:       float64(mon.HostPathP99()) / 1e6,
	})
	a.publishTiers()
}

// SetTierCapability declares which SLA tiers this host admits; every
// Publish from then on writes the /tiers census (key presence =
// capability, value = resident guests of that tier, with undeclared
// guests counting as bronze per internal/gstate's taxonomy). The nil
// default keeps the host untiered, exactly as before tiering existed.
func (a *HostAgent) SetTierCapability(tiers []gstate.Tier) { a.tiers = tiers }

// publishTiers counts resident guests per tier from the host's local
// store SLA declarations and publishes the census.
func (a *HostAgent) publishTiers() {
	if len(a.tiers) == 0 {
		return
	}
	counts := make(map[string]int, len(a.tiers))
	for _, t := range a.tiers {
		counts[string(t)] = 0
	}
	st := a.h.Store()
	doms, _ := st.List(store.Dom0, store.Root)
	for _, d := range doms {
		id, err := strconv.Atoi(d)
		if err != nil || id == 0 {
			continue // Dom0 is the control domain, not a placed guest
		}
		tier, _ := gstate.ReadSLA(st, store.DomID(id))
		if _, ok := counts[string(tier)]; ok {
			counts[string(tier)]++
		}
	}
	PublishTierCounts(a.view, a.id, counts)
}

// --- Registry-entry schema helpers -------------------------------------------
//
// These are the only writers and reader of the /cluster/hypervisors/<id>
// keys, shared by the in-sim HostAgent and cmd/iorchestra-clusterd's
// wall-clock agent, so the two can never drift apart on the schema.

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
// /cluster/guests/<uid> — the durable outcome of a placement decision,
// whether it came from the in-sim Federation or clusterd's one-shot
// scorer.
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
// entry. Liveness is the caller's call — the registry (or an expirer)
// owns the heartbeat clock — so Live is left false here.
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
