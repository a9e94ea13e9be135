// Package federation is the cluster-scale control plane on top of the
// per-host managers: a store-backed hypervisor registry with heartbeat
// liveness and TTL expiry, a placement engine scoring live hosts with
// hard constraints plus weighted soft preferences, and live guest
// migration with hash-versioned store-subtree handoff — the layer that
// turns `internal/cluster`'s isolated hosts into one datacenter
// (docs/CLUSTER.md is the normative reference).
//
// All cluster coordination state lives under /cluster in a shared store
// (internal/store's key constructors own the schema), so the same logic
// runs in-process over LocalView or across machines over netstore.
// Every cluster.* decision is one record in the federation's recorder,
// and Counters reads the per-kind counts back from it.
package federation

import (
	"fmt"
	"sort"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Config parameterizes a Federation.
type Config struct {
	// HeartbeatInterval is the host agents' publish cadence
	// (default 100 ms).
	HeartbeatInterval sim.Duration
	// TTL is the heartbeat age past which a host is considered dead
	// (default 3.5 × HeartbeatInterval — a few missed beats, not one).
	TTL sim.Duration
	// RebalanceInterval enables the load rebalancer: every interval, if
	// the live VCPU spread exceeds RebalanceGap, one guest migrates from
	// the busiest to the idlest host (0 = rebalancer off).
	RebalanceInterval sim.Duration
	// RebalanceGap is the minimum activeVCPUs spread that triggers a
	// rebalance migration (default 4).
	RebalanceGap int
	// MigrationStep is the latency of each migration phase — the window
	// in which guest writes race the pre-copy (default 2 ms).
	MigrationStep sim.Duration
}

// catchUpRounds bounds delta catch-up after freeze before the migration
// is declared diverged and aborted.
const catchUpRounds = 8

func (c *Config) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * sim.Millisecond
	}
	if c.TTL <= 0 {
		c.TTL = c.HeartbeatInterval * 7 / 2
	}
	if c.RebalanceGap <= 0 {
		c.RebalanceGap = 4
	}
	if c.MigrationStep <= 0 {
		c.MigrationStep = 2 * sim.Millisecond
	}
}

// Counters is the federation's lifetime decision counts: one field per
// cluster.* trace kind, read from the recorder that traced it, so
// operators can reconcile NDJSON traces against the federation even
// when the recorder ring has evicted events.
type Counters struct {
	Joins          uint64 `json:"joins"`
	Expiries       uint64 `json:"expiries"`
	Places         uint64 `json:"places"`
	Rejects        uint64 `json:"rejects"`
	MigrateStarts  uint64 `json:"migrate_starts"`
	MigrateSyncs   uint64 `json:"migrate_syncs"`
	MigrateDones   uint64 `json:"migrate_dones"`
	MigrateAborts  uint64 `json:"migrate_aborts"`
	RebalanceScans uint64 `json:"rebalance_scans"`
}

// member is one in-process host under federation control: the host
// itself, its registry agent, and a privileged view of its own store
// (the migration handoff reads the source's and writes the target's).
type member struct {
	id    string
	host  *hypervisor.Host
	agent *HostAgent
	view  View
}

// Federation assembles registry, placement and migration over one
// cluster view. Like everything on a sim kernel it is single-goroutine.
type Federation struct {
	k    *sim.Kernel
	view View
	rec  *trace.Recorder // the decision ledger; never nil (see New)
	cfg  Config
	pol  Policy // the default placement policy
	reg  *Registry

	members   map[string]*member
	memberIDs []string // sorted; deterministic iteration everywhere

	hooks     MigrationHooks
	hasHooks  bool
	migrating map[string]*migration

	stopped bool

	// rebalanceScans has no trace kind — most scans decide nothing — so
	// it is the one count the recorder cannot hold.
	rebalanceScans uint64
}

// New builds a federation over the shared cluster view. Every decision
// lands in rec as a typed cluster.* event; a nil rec (no tracing) is
// replaced by a count-only recorder, so Counters works either way.
func New(k *sim.Kernel, view View, rec *trace.Recorder, cfg Config) *Federation {
	cfg.fillDefaults()
	var pol Policy
	pol.fillDefaults()
	return &Federation{
		k: k, view: view, rec: trace.OrCountOnly(rec), cfg: cfg, pol: pol,
		reg:       NewRegistry(k, view, cfg.TTL),
		members:   map[string]*member{},
		migrating: map[string]*migration{},
	}
}

// Registry exposes the membership/liveness tracker.
func (f *Federation) Registry() *Registry { return f.reg }

// Counters snapshots the decision counts from the recorder.
func (f *Federation) Counters() Counters {
	n := f.rec.Count
	return Counters{
		Joins:          n(trace.KindClusterJoin),
		Expiries:       n(trace.KindClusterExpire),
		Places:         n(trace.KindClusterPlace),
		Rejects:        n(trace.KindClusterReject),
		MigrateStarts:  n(trace.KindClusterMigrateStart),
		MigrateSyncs:   n(trace.KindClusterMigrateSync),
		MigrateDones:   n(trace.KindClusterMigrateDone),
		MigrateAborts:  n(trace.KindClusterMigrateAbort),
		RebalanceScans: f.rebalanceScans,
	}
}

// Start arms the periodic registry expiry sweep and, if configured, the
// load rebalancer.
func (f *Federation) Start() {
	f.stopped = false
	f.k.After(f.cfg.TTL/2, f.sweepTick)
	if f.cfg.RebalanceInterval > 0 {
		f.k.After(f.cfg.RebalanceInterval, f.rebalanceTick)
	}
}

// Stop halts the periodic work (agents keep beating until stopped
// individually — they belong to their hosts, not the federation loop).
func (f *Federation) Stop() { f.stopped = true }

// Join registers host h in the cluster as id with the given domain
// class, starts its heartbeat agent, and returns the agent (tests stop
// it to fault-kill the host).
func (f *Federation) Join(id, class string, h *hypervisor.Host) (*HostAgent, error) {
	if _, dup := f.members[id]; dup {
		return nil, fmt.Errorf("federation: host %q already joined", id)
	}
	m := &member{
		id:    id,
		host:  h,
		agent: NewHostAgent(f.k, f.view, id, class, h, f.cfg.HeartbeatInterval),
		view:  LocalView{St: h.Store()},
	}
	f.members[id] = m
	f.memberIDs = append(f.memberIDs, id)
	sort.Strings(f.memberIDs)
	f.reg.MarkAlive(id)
	m.agent.Start()
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterJoin, Host: id,
		Size: int64(h.TotalCores()), Value: class,
	})
	return m.agent, nil
}

// Member returns a joined host by id (nil if unknown).
func (f *Federation) Member(id string) *hypervisor.Host {
	if m := f.members[id]; m != nil {
		return m.host
	}
	return nil
}

// hostStats assembles the placement inputs for every registered host
// from the registry, in ascending id order.
func (f *Federation) hostStats() []HostStats {
	ids := f.reg.Hosts()
	out := make([]HostStats, 0, len(ids))
	for _, id := range ids {
		hs := ReadHostStats(f.view, id)
		hs.Live = f.reg.Live(id)
		out = append(out, hs)
	}
	return out
}

// Place runs the scoring engine over the live registry for req. On
// admission it records the guest under /cluster/guests/<uid> and
// returns the chosen host id; on rejection ok is false. Either way the
// decision is traced (cluster.place / cluster.reject) and counted.
func (f *Federation) Place(req Request) (hostID string, ok bool) {
	scores, winner, mode := ScoreHosts(f.pol, req, f.hostStats())
	if winner < 0 {
		f.rec.Record(trace.Record{
			Kind: trace.KindClusterReject, Path: req.Guest,
			Size: int64(req.VCPUs), Value: mode,
		})
		return "", false
	}
	win := scores[winner]
	RecordPlacement(f.view, req.Guest, win.ID, req.VCPUs)
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterPlace, Host: win.ID, Path: req.Guest,
		Size: int64(req.VCPUs), Weight: win.Score, Value: mode,
	})
	return win.ID, true
}

// BindGuest records the domain id a placed guest received on its host
// and refreshes the host's load stats so the next placement sees the
// new occupancy immediately.
func (f *Federation) BindGuest(uid string, dom store.DomID) {
	f.view.Write(store.ClusterGuestKey(uid, keyGuestDom), itoa(int64(dom)))
	host := readString(f.view, store.ClusterGuestKey(uid, keyGuestHost), "")
	if m := f.members[host]; m != nil && !m.agent.Stopped() {
		m.agent.PublishStats()
	}
}

// NoteGuestGone removes a completed (or destroyed) guest's cluster
// record and refreshes its host's stats.
func (f *Federation) NoteGuestGone(uid string) {
	host := readString(f.view, store.ClusterGuestKey(uid, keyGuestHost), "")
	f.view.Remove(store.ClusterGuestPath(uid))
	if m := f.members[host]; m != nil && !m.agent.Stopped() {
		m.agent.PublishStats()
	}
}

// sweepTick TTL-expires hosts whose heartbeat stalled: the registry
// entry is removed (agents republish statics each beat, so a wrongly
// expired but living host heals itself) and the expiry is traced.
func (f *Federation) sweepTick() {
	if f.stopped {
		return
	}
	for _, id := range f.reg.Hosts() {
		stale, age := f.reg.Stale(id)
		if !stale {
			continue
		}
		f.reg.Forget(id)
		f.view.Remove(store.HypervisorPath(id))
		f.rec.Record(trace.Record{Kind: trace.KindClusterExpire, Host: id, Latency: sim.Time(age)})
	}
	f.k.After(f.cfg.TTL/2, f.sweepTick)
}

// rebalanceTick migrates one guest from the busiest to the idlest live
// host when the VCPU spread exceeds the configured gap. At most one
// migration is in flight at a time — rebalancing is a background
// pressure valve, not a scheduler.
func (f *Federation) rebalanceTick() {
	if f.stopped {
		return
	}
	defer f.k.After(f.cfg.RebalanceInterval, f.rebalanceTick)
	if len(f.migrating) > 0 || !f.hasHooks {
		return
	}
	f.rebalanceScans++
	stats := f.hostStats()
	busiest, idlest := -1, -1
	for i, h := range stats {
		if !h.Live || f.members[h.ID] == nil {
			continue
		}
		if busiest < 0 || h.ActiveVCPUs > stats[busiest].ActiveVCPUs {
			busiest = i
		}
		if idlest < 0 || h.ActiveVCPUs < stats[idlest].ActiveVCPUs {
			idlest = i
		}
	}
	if busiest < 0 || idlest < 0 || busiest == idlest {
		return
	}
	src, dst := stats[busiest], stats[idlest]
	if src.ActiveVCPUs-dst.ActiveVCPUs < f.cfg.RebalanceGap {
		return
	}
	// Pick the smallest movable guest on the busiest host that fits the
	// idlest (smallest uid on ties) — least dirty state to drag across.
	uids, err := f.view.List(store.ClusterGuestsPath())
	if err != nil {
		return
	}
	pick, pickVCPUs := "", 0
	for _, uid := range uids {
		if readString(f.view, store.ClusterGuestKey(uid, keyGuestHost), "") != src.ID {
			continue
		}
		v := int(readInt(f.view, store.ClusterGuestKey(uid, keyGuestVCPUs), 0))
		if v <= 0 {
			continue
		}
		if float64(dst.ActiveVCPUs+v) > float64(dst.Cores)*f.pol.Overcommit {
			continue
		}
		if pick == "" || v < pickVCPUs {
			pick, pickVCPUs = uid, v
		}
	}
	if pick == "" {
		return
	}
	f.Migrate(pick, src.ID, dst.ID)
}
