package federation

import (
	"reflect"
	"testing"

	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// bed is a two-host in-sim federation over a dedicated cluster store,
// with a recorder that sees only cluster.* events.
type bed struct {
	k      *sim.Kernel
	cs     *store.Store
	rec    *trace.Recorder
	fed    *Federation
	hosts  map[string]*hypervisor.Host
	agents map[string]*HostAgent
}

func newBed(t *testing.T, cfg Config, ids ...string) *bed {
	t.Helper()
	k := sim.NewKernel()
	rng := stats.NewStream(42, "fedbed")
	b := &bed{
		k:      k,
		cs:     store.New(k, 30*sim.Microsecond),
		rec:    trace.NewRecorder(k, 1<<14),
		hosts:  map[string]*hypervisor.Host{},
		agents: map[string]*HostAgent{},
	}
	b.fed = New(k, LocalView{St: b.cs}, b.rec, cfg)
	for _, id := range ids {
		h := hypervisor.New(k, hypervisor.Config{Sockets: 1, CoresPerSocket: 6}, rng.Fork(id))
		ag, err := b.fed.Join(id, "", h)
		if err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
		b.hosts[id], b.agents[id] = h, ag
	}
	b.fed.Start()
	return b
}

// TestRegistryJoinAndLiveness: joined hosts appear in the registry with
// their published capacity and stay live while their agents beat.
func TestRegistryJoinAndLiveness(t *testing.T) {
	b := newBed(t, Config{}, "ha", "hb")
	b.k.RunUntil(sim.Second)

	if got := b.fed.Registry().Hosts(); !reflect.DeepEqual(got, []string{"ha", "hb"}) {
		t.Fatalf("Hosts() = %v, want [ha hb]", got)
	}
	for _, id := range []string{"ha", "hb"} {
		if !b.fed.Registry().Live(id) {
			t.Fatalf("host %s not live while beating", id)
		}
	}
	cores := readInt(LocalView{St: b.cs}, store.HypervisorKey("ha", keyCores), -1)
	if cores != int64(b.hosts["ha"].TotalCores()) {
		t.Fatalf("published cores = %d, want %d", cores, b.hosts["ha"].TotalCores())
	}
	c := b.fed.Counters()
	if c.Joins != 2 || c.Expiries != 0 {
		t.Fatalf("counters = %+v, want 2 joins, 0 expiries", c)
	}
	if n := b.rec.Count(trace.KindClusterJoin); n != c.Joins {
		t.Fatalf("join events %d != joins counter %d", n, c.Joins)
	}
	if _, dup := b.fed.Join("ha", "", b.hosts["ha"]); dup == nil {
		t.Fatal("duplicate Join accepted")
	}
}

// TestRegistryTTLExpiryAndSelfHeal: a host whose agent stops beating is
// TTL-expired by the sweep (entry removed, cluster.expire traced and
// counted); restarting the agent republishes the entry and the host
// rejoins without any explicit re-registration.
func TestRegistryTTLExpiryAndSelfHeal(t *testing.T) {
	b := newBed(t, Config{}, "ha", "hb")
	b.k.RunUntil(500 * sim.Millisecond)

	b.agents["hb"].Stop()
	b.k.RunUntil(2 * sim.Second)

	if got := b.fed.Registry().Hosts(); !reflect.DeepEqual(got, []string{"ha"}) {
		t.Fatalf("after expiry Hosts() = %v, want [ha]", got)
	}
	if b.fed.Registry().Live("hb") {
		t.Fatal("stopped host still live")
	}
	c := b.fed.Counters()
	if c.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", c.Expiries)
	}
	if n := b.rec.Count(trace.KindClusterExpire); n != c.Expiries {
		t.Fatalf("expire events %d != expiries counter %d", n, c.Expiries)
	}

	// Self-heal: the restarted agent's next beat recreates the entry.
	b.agents["hb"].Start()
	b.k.RunUntil(2*sim.Second + 500*sim.Millisecond)
	if got := b.fed.Registry().Hosts(); !reflect.DeepEqual(got, []string{"ha", "hb"}) {
		t.Fatalf("after restart Hosts() = %v, want [ha hb]", got)
	}
	if !b.fed.Registry().Live("hb") {
		t.Fatal("restarted host not live again")
	}
}

// TestFederationPlaceAndReject: placement through the live registry
// picks the lexicographically-first of two equal hosts, records the
// guest, and rejects an impossible ask with a traced reason.
func TestFederationPlaceAndReject(t *testing.T) {
	b := newBed(t, Config{}, "ha", "hb")
	b.k.RunUntil(sim.Second)

	host, ok := b.fed.Place(Request{Guest: "vm001", VCPUs: 2})
	if !ok || host != "ha" {
		t.Fatalf("Place = (%q, %v), want (ha, true)", host, ok)
	}
	if got := b.fed.GuestHost("vm001"); got != "ha" {
		t.Fatalf("GuestHost = %q, want ha", got)
	}

	// 64 VCPUs fit nowhere: enforce mode rejects with a reason.
	if _, ok := b.fed.Place(Request{Guest: "vm002", VCPUs: 64}); ok {
		t.Fatal("impossible request admitted")
	}
	c := b.fed.Counters()
	if c.Places != 1 || c.Rejects != 1 {
		t.Fatalf("counters = %+v, want 1 place, 1 reject", c)
	}
	var reject *trace.Record
	for _, e := range b.rec.Events() {
		if e.Kind == trace.KindClusterReject {
			e := e
			reject = &e
		}
	}
	if reject == nil || reject.Value != "no-feasible-host" {
		t.Fatalf("reject event = %+v, want reason no-feasible-host", reject)
	}
}

// TestLocalViewSyncSubtree: the in-process sync mirrors netstore OpSync —
// full walk for an uncovered version, delta with prune-markers-first for
// a covered window, match for an up-to-date hash, and a rejection for a
// non-domain root.
func TestLocalViewSyncSubtree(t *testing.T) {
	k := sim.NewKernel()
	st := store.New(k, 30*sim.Microsecond)
	v := LocalView{St: st}
	st.AddDomain(7)
	root := store.DomainPath(7)
	st.Write(store.Dom0, root+"/a", "1")
	st.Write(store.Dom0, root+"/b/c", "2")

	if _, err := v.SyncSubtree(store.HypervisorsPath(), ^uint64(0), 0); err == nil {
		t.Fatal("non-domain sync root accepted")
	}

	full, err := v.SyncSubtree(root, ^uint64(0), 0)
	if err != nil || full.Mode != store.SyncFull {
		t.Fatalf("first sync = (%v, %v), want full walk", full.Mode, err)
	}
	got := map[string]string{}
	for _, p := range full.Pairs {
		got[p.Path] = p.Value
	}
	if got[root+"/a"] != "1" || got[root+"/b/c"] != "2" {
		t.Fatalf("full walk pairs = %v", full.Pairs)
	}

	// No mutation: the hash matches and nothing is sent.
	match, err := v.SyncSubtree(root, full.Version, full.Hash)
	if err != nil || match.Mode != store.SyncMatch || len(match.Pairs) != 0 {
		t.Fatalf("unchanged sync = %+v, %v, want empty match", match, err)
	}

	// A write and a removal inside the window: delta, prune marker first.
	st.Write(store.Dom0, root+"/a", "1b")
	st.Remove(store.Dom0, root+"/b")
	delta, err := v.SyncSubtree(root, full.Version, full.Hash)
	if err != nil || delta.Mode != store.SyncDelta {
		t.Fatalf("windowed sync = (%v, %v), want delta", delta.Mode, err)
	}
	sawRemove, sawValue := false, false
	for _, p := range delta.Pairs {
		if p.Removed {
			if sawValue {
				t.Fatalf("prune marker after values: %v", delta.Pairs)
			}
			if p.Path == root+"/b" {
				sawRemove = true
			}
		} else if p.Path == root+"/a" && p.Value == "1b" {
			sawValue = true
		}
	}
	if !sawRemove || !sawValue {
		t.Fatalf("delta pairs = %v, want /b prune + /a value", delta.Pairs)
	}
}

// TestTierCensusPublishAndRead: a tier-capable agent publishes its
// per-tier guest census under /tiers (counting the host store's SLA
// declarations, undeclared guests as bronze), ReadHostStats reads it
// back, and an untiered agent publishes no census at all.
func TestTierCensusPublishAndRead(t *testing.T) {
	b := newBed(t, Config{}, "ha", "hb")
	b.agents["ha"].SetTierCapability([]gstate.Tier{gstate.Gold, gstate.Silver, gstate.Bronze})

	// Two resident guests on ha: dom 1 declared gold, dom 2 undeclared.
	hst := b.hosts["ha"].Store()
	hst.AddDomain(1)
	hst.AddDomain(2)
	gstate.PublishSLA(hst, 1, gstate.Gold, gstate.SLA{})
	b.k.RunUntil(sim.Second)

	v := LocalView{St: b.cs}
	hs := ReadHostStats(v, "ha")
	want := map[string]int{"gold": 1, "silver": 0, "bronze": 1}
	if !reflect.DeepEqual(hs.TierCounts, want) {
		t.Fatalf("ha TierCounts = %v, want %v", hs.TierCounts, want)
	}
	if !hs.AdmitsTier("gold") || hs.AdmitsTier("platinum") {
		t.Fatal("AdmitsTier must track census key presence")
	}
	if hb := ReadHostStats(v, "hb"); hb.TierCounts != nil {
		t.Fatalf("untiered hb published a census: %v", hb.TierCounts)
	}
}
