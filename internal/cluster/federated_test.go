package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"iorchestra/internal/fault"
	"iorchestra/internal/federation"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

var updateClusterGolden = flag.Bool("update", false, "rewrite the cluster golden trace fixture")

// fedBed is a federated two-or-more-host testbed over a dedicated
// cluster store. Only the federation records into rec, so the trace is
// pure cluster.* decisions.
type fedBed struct {
	k      *sim.Kernel
	cs     *store.Store
	rec    *trace.Recorder
	fed    *federation.Federation
	hosts  []*hypervisor.Host
	agents []*federation.HostAgent
}

// guestHost reads the hypervisor the federation records uid on: its
// /cluster/guests/<uid>/host key.
func (b *fedBed) guestHost(uid string) string {
	host, _ := b.cs.Read(store.Dom0, store.ClusterGuestKey(uid, "host"))
	return host
}

func newFedBed(t testing.TB, seed uint64, nHosts int, fcfg federation.Config) *fedBed {
	t.Helper()
	k := sim.NewKernel()
	rng := stats.NewStream(seed, "fedbed")
	b := &fedBed{
		k:   k,
		cs:  store.New(k, 30*sim.Microsecond),
		rec: trace.NewRecorder(k, 1<<16),
	}
	b.fed = federation.New(k, federation.LocalView{St: b.cs}, b.rec, fcfg)
	for i := 0; i < nHosts; i++ {
		id := fmt.Sprintf("host%d", i)
		h := hypervisor.New(k, hypervisor.Config{Sockets: 1, CoresPerSocket: 6}, rng.Fork(id))
		ag, err := b.fed.Join(id, "", h)
		if err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
		b.hosts = append(b.hosts, h)
		b.agents = append(b.agents, ag)
	}
	b.fed.Start()
	return b
}

// inject queues one VM directly (bypassing the Poisson process) and
// pushes it through the placement engine.
func (f *FederatedArrivals) inject(uid string, vcpus int, app AppKind) {
	f.arrived++
	f.queue = append(f.queue, fedPending{uid: uid, vcpus: vcpus, app: app})
	f.tryPlace()
}

// runningUIDs lists the engine's live VMs in uid order.
func (f *FederatedArrivals) runningUIDs() []string {
	uids := make([]string, 0, len(f.running))
	for uid := range f.running {
		uids = append(uids, uid)
	}
	sort.Strings(uids)
	return uids
}

// assertCountersMirrorTrace is the runtime backstop of the trace↔counter
// mirror (docs/LINTING.md "Held by construction"): on a live run, the
// recorder's count of every cluster.* kind equals the Counters field
// reporting it. The pairing is stated here independently of
// Federation.Counters, so a mis-wired line there fails.
func assertCountersMirrorTrace(t *testing.T, b *fedBed) {
	t.Helper()
	c := b.fed.Counters()
	for _, m := range []struct {
		kind trace.Kind
		n    uint64
	}{
		{trace.KindClusterJoin, c.Joins},
		{trace.KindClusterExpire, c.Expiries},
		{trace.KindClusterPlace, c.Places},
		{trace.KindClusterReject, c.Rejects},
		{trace.KindClusterMigrateStart, c.MigrateStarts},
		{trace.KindClusterMigrateSync, c.MigrateSyncs},
		{trace.KindClusterMigrateDone, c.MigrateDones},
		{trace.KindClusterMigrateAbort, c.MigrateAborts},
	} {
		if got := b.rec.Count(m.kind); got != m.n {
			t.Errorf("%s events = %d, counter = %d", m.kind, got, m.n)
		}
	}
}

const fedGoldenSeed = 4711

// runFedGoldenScenario is the fixed-seed two-host acceptance scenario:
// Poisson arrivals flow through the scoring engine, the rebalancer runs,
// and one migration is forced at a fixed instant so every run exercises
// the full freeze/sync/commit path.
func runFedGoldenScenario(t testing.TB, seed uint64) (*fedBed, *FederatedArrivals) {
	t.Helper()
	b := newFedBed(t, seed, 2, federation.Config{
		RebalanceInterval: 10 * sim.Second,
		RebalanceGap:      4,
	})
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{
		Lambda:   10,
		Duration: 2 * sim.Minute,
		Sizes:    []int{2, 4},
		YCSBOps:  1500, FSBytes: 32 << 20, Cloud9Bursts: 200,
	}, VMHooks{}, stats.NewStream(seed, "arrivals"))
	fa.Start()
	// From t=45s on, force one cross-host migration of the first movable
	// VM (retrying each second until a candidate is running) so every run
	// exercises the freeze/sync/commit path even when the rebalancer
	// finds the hosts balanced.
	var force func()
	force = func() {
		for _, uid := range fa.runningUIDs() {
			from := b.guestHost(uid)
			to := "host0"
			if from == to {
				to = "host1"
			}
			if b.fed.Migrate(uid, from, to) {
				return
			}
		}
		b.k.After(sim.Second, force)
	}
	b.k.After(45*sim.Second, force)
	b.k.RunUntil(5 * sim.Minute)
	return b, fa
}

func fedGoldenPath() string {
	return filepath.Join("testdata", "golden_cluster.ndjson")
}

// TestFederatedGoldenClusterTrace is the PR's acceptance run: a
// fixed-seed two-host arrival experiment must place guests through the
// scoring engine, complete at least one live migration, and emit a
// byte-stable cluster.* decision trace (testdata fixture; -update
// rewrites it).
func TestFederatedGoldenClusterTrace(t *testing.T) {
	b, fa := runFedGoldenScenario(t, fedGoldenSeed)
	c := b.fed.Counters()
	if c.Places == 0 {
		t.Fatal("no guest went through the placement engine")
	}
	if c.MigrateDones == 0 {
		t.Fatalf("no live migration completed (counters %+v)", c)
	}
	if fa.Completed() == 0 {
		t.Fatal("no VM completed its problem size")
	}
	assertCountersMirrorTrace(t, b)
	if d := b.rec.Dropped(); d > 0 {
		t.Fatalf("trace ring evicted %d records; raise the capacity", d)
	}

	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, b.rec.Events()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := fedGoldenPath()
	if *updateClusterGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", path, bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster decision trace diverged from %s (golden %d bytes, got %d)",
			path, len(want), len(got))
	}
}

// TestFederatedGoldenDetectsPerturbation guards the harness: a different
// seed must not reproduce the fixture, or the scenario would be too
// inert to catch behavior changes.
func TestFederatedGoldenDetectsPerturbation(t *testing.T) {
	if *updateClusterGolden {
		t.Skip("fixture being rewritten")
	}
	want, err := os.ReadFile(fedGoldenPath())
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	b, _ := runFedGoldenScenario(t, fedGoldenSeed+1)
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, b.rec.Events()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		t.Fatal("perturbed seed reproduced the fixture exactly")
	}
}

// abortCfg times migration phases against the heartbeat TTL so a host
// killed right after a beat is still live at +210 ms and +410 ms but
// stale at +610 ms: pre-copy and freeze proceed, catch-up aborts.
var abortCfg = federation.Config{
	HeartbeatInterval: 100 * sim.Millisecond,
	TTL:               500 * sim.Millisecond,
	MigrationStep:     200 * sim.Millisecond,
}

// TestMigrationAbortsWhenTargetDies is the PR's second acceptance case:
// the target is fault-killed mid-transfer (after freeze), the migration
// aborts with reason target-dead, and the guest is restored on the
// source, where it runs to completion.
func TestMigrationAbortsWhenTargetDies(t *testing.T) {
	b := newFedBed(t, 7, 2, abortCfg)
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{
		Cloud9Bursts: 800, // ≈8 s of 10 ms bursts: still running at the 2 s audit
	}, VMHooks{}, stats.NewStream(7, "arr"))
	fa.inject("vm001", 2, AppCloud9)
	if got := b.guestHost("vm001"); got != "host0" {
		t.Fatalf("vm001 placed on %q, want host0", got)
	}

	// Kill the target just after its beat at t=500ms, then start the
	// migration while the registry still believes it is alive.
	b.k.RunUntil(510 * sim.Millisecond)
	b.agents[1].Stop()
	if !b.fed.Migrate("vm001", "host0", "host1") {
		t.Fatal("Migrate refused a live-looking target")
	}

	b.k.RunUntil(2 * sim.Second)
	c := b.fed.Counters()
	if c.MigrateStarts != 1 || c.MigrateAborts != 1 || c.MigrateDones != 0 {
		t.Fatalf("counters = %+v, want one started, one aborted migration", c)
	}
	var abort *trace.Record
	for _, e := range b.rec.Events() {
		if e.Kind == trace.KindClusterMigrateAbort {
			e := e
			abort = &e
		}
	}
	if abort == nil || abort.Value != "target-dead" || abort.Host != "host0" || abort.Path != "vm001" {
		t.Fatalf("abort event = %+v, want target-dead on vm001 from host0", abort)
	}

	// Restored on the source: record intact, guest present, app running.
	vm := fa.running["vm001"]
	if vm == nil || vm.frozen || vm.host != "host0" {
		t.Fatalf("vm001 after abort = %+v, want unfrozen on host0", vm)
	}
	if b.guestHost("vm001") != "host0" {
		t.Fatalf("guest record moved to %q", b.guestHost("vm001"))
	}
	if b.hosts[0].Guest(vm.dom) == nil {
		t.Fatal("source guest vanished during aborted migration")
	}

	b.k.RunUntil(4 * sim.Minute)
	if fa.Completed() != 1 {
		t.Fatalf("Completed = %d, want the restored VM to finish on the source", fa.Completed())
	}
	assertCountersMirrorTrace(t, b)
}

// TestMigrationAbortsWhenSourceExpires: the source's heartbeat expires
// mid-migration (after freeze). The commit gate notices and aborts with
// source-dead — the authoritative guest state died with the host, so the
// cluster record is dropped instead of restored.
func TestMigrationAbortsWhenSourceExpires(t *testing.T) {
	b := newFedBed(t, 8, 2, abortCfg)
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{
		Cloud9Bursts: 150,
	}, VMHooks{}, stats.NewStream(8, "arr"))
	fa.inject("vm001", 2, AppCloud9)

	// Kill the SOURCE after its beat; phases run at +200/400/600/800 ms,
	// so pre-copy, freeze and catch-up see a live target, and the commit
	// at +810 ms finds the source stale (age ≈ 810 ms > 500 ms TTL).
	b.k.RunUntil(510 * sim.Millisecond)
	b.agents[0].Stop()
	if !b.fed.Migrate("vm001", "host0", "host1") {
		t.Fatal("Migrate refused")
	}

	b.k.RunUntil(3 * sim.Second)
	c := b.fed.Counters()
	if c.MigrateAborts != 1 || c.MigrateDones != 0 {
		t.Fatalf("counters = %+v, want one aborted migration", c)
	}
	var abort *trace.Record
	for _, e := range b.rec.Events() {
		if e.Kind == trace.KindClusterMigrateAbort {
			e := e
			abort = &e
		}
	}
	if abort == nil || abort.Value != "source-dead" {
		t.Fatalf("abort event = %+v, want source-dead", abort)
	}
	if got := b.guestHost("vm001"); got != "" {
		t.Fatalf("guest record survived a dead source: %q", got)
	}
	assertCountersMirrorTrace(t, b)
}

// TestMigrationCarriesRacingGuestWrites is the satellite race case:
// writes landing in the source subtree after the pre-copy snapshot (but
// before freeze) must reach the target via the delta catch-up rounds,
// prune markers included, and the moved guest must be able to write its
// transferred nodes on the target.
func TestMigrationCarriesRacingGuestWrites(t *testing.T) {
	b := newFedBed(t, 9, 2, federation.Config{MigrationStep: 5 * sim.Millisecond})
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{
		Cloud9Bursts: 5000,
	}, VMHooks{}, stats.NewStream(9, "arr"))
	fa.inject("vm001", 2, AppCloud9)
	vm := fa.running["vm001"]
	srcDom := vm.dom
	srcRoot := store.DomainPath(srcDom)
	src := b.hosts[0].Store()
	if err := src.Write(srcDom, srcRoot+"/race/pre", "v0"); err != nil {
		t.Fatal(err)
	}

	b.k.RunUntil(100 * sim.Millisecond)
	if !b.fed.Migrate("vm001", "host0", "host1") {
		t.Fatal("Migrate refused")
	}
	// Pre-copy snapshots at +5 ms, freeze lands at +10 ms. The +2 ms
	// write rides the snapshot; the +7 ms batch races it and must be
	// caught by the post-freeze delta rounds.
	b.k.After(2*sim.Millisecond, func() {
		src.Write(srcDom, srcRoot+"/race/early", "e1")
	})
	b.k.After(7*sim.Millisecond, func() {
		src.Write(srcDom, srcRoot+"/race/early", "e2")
		src.Write(srcDom, srcRoot+"/race/late", "l1")
		src.Remove(store.Dom0, srcRoot+"/race/pre")
	})

	b.k.RunUntil(400 * sim.Millisecond)
	if got := b.fed.Counters().MigrateDones; got != 1 {
		t.Fatalf("MigrateDones = %d, want 1", got)
	}
	if vm.host != "host1" {
		t.Fatalf("vm001 on %q, want host1", vm.host)
	}
	dstRoot := store.DomainPath(vm.dom)
	dst := b.hosts[1].Store()
	for path, want := range map[string]string{
		dstRoot + "/race/early": "e2",
		dstRoot + "/race/late":  "l1",
	} {
		got, err := dst.Read(store.Dom0, path)
		if err != nil || got != want {
			t.Fatalf("target %s = (%q, %v), want %q", path, got, err, want)
		}
	}
	if _, err := dst.Read(store.Dom0, dstRoot+"/race/pre"); err == nil {
		t.Fatal("removed-before-freeze node resurfaced on the target")
	}
	// The handoff granted the new domain write access to its own nodes.
	if err := dst.Write(vm.dom, dstRoot+"/race/late", "owned"); err != nil {
		t.Fatalf("migrated guest cannot write its transferred node: %v", err)
	}
	// The source copy is retired.
	if _, err := src.Read(store.Dom0, srcRoot); err == nil {
		t.Fatal("source subtree survived the commit")
	}
	// The sync rounds actually used the delta path and converged.
	sawDelta, last := false, ""
	for _, e := range b.rec.Events() {
		if e.Kind == trace.KindClusterMigrateSync {
			last = e.Value
			if e.Value == "delta" {
				sawDelta = true
			}
		}
	}
	if !sawDelta || last != "match" {
		t.Fatalf("sync rounds = (delta seen %v, last %q), want delta then match", sawDelta, last)
	}
}

// TestMigrationRemovesSourceThroughHooks: a committed migration retires
// the source guest the way completion does — OnRemove runs while the
// source host still holds it, so a system attached at OnCreate lets go
// of it — and the target's copy is the one left, removed in turn when
// the VM finishes there.
func TestMigrationRemovesSourceThroughHooks(t *testing.T) {
	b := newFedBed(t, 7, 2, federation.Config{})
	var created, removed []*hypervisor.GuestRuntime
	hooks := VMHooks{
		OnCreate: func(rt *hypervisor.GuestRuntime) { created = append(created, rt) },
		OnRemove: func(rt *hypervisor.GuestRuntime) {
			if b.hosts[0].Guest(rt.G.ID()) != rt && b.hosts[1].Guest(rt.G.ID()) != rt {
				t.Errorf("OnRemove(dom %d) ran after its host forgot the guest", rt.G.ID())
			}
			removed = append(removed, rt)
		},
	}
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{Cloud9Bursts: 800}, hooks, stats.NewStream(7, "arr"))
	fa.inject("vm001", 2, AppCloud9)
	srcDom := fa.running["vm001"].dom

	b.k.RunUntil(510 * sim.Millisecond)
	if !b.fed.Migrate("vm001", "host0", "host1") {
		t.Fatal("Migrate refused")
	}
	b.k.RunUntil(sim.Second)
	if got := b.fed.Counters().MigrateDones; got != 1 {
		t.Fatalf("MigrateDones = %d, want 1", got)
	}
	if len(created) != 2 || len(removed) != 1 || removed[0] != created[0] {
		t.Fatalf("after commit: created %d, removed %d (source removed: %v), want 2, 1, true",
			len(created), len(removed), len(removed) == 1 && removed[0] == created[0])
	}
	if b.hosts[0].Guest(srcDom) != nil {
		t.Fatal("source guest survived the commit")
	}
	if vm := fa.running["vm001"]; vm.host != "host1" || b.hosts[1].Guest(vm.dom) != created[1] {
		t.Fatalf("vm001 on %q dom %d, want host1's created guest", vm.host, vm.dom)
	}

	b.k.RunUntil(4 * sim.Minute)
	if fa.Completed() != 1 || len(removed) != 2 || removed[1] != created[1] {
		t.Fatalf("after completion: completed %d, removed %d, want 1 VM finished and both copies removed",
			fa.Completed(), len(removed))
	}
}

func clusterSoakDuration() sim.Duration {
	if v := os.Getenv("CLUSTER_SOAK"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return sim.Duration(d.Nanoseconds())
		}
	}
	return 45 * sim.Second
}

// TestClusterSoakUnderStoreFaults drives federation traffic — arrivals,
// heartbeats, rebalancer migrations — over a cluster store that drops 5%
// of watch notifications and delays 20% of the rest (the PR 2 fault
// grammar). Spurious expiries must self-heal, no VM may be lost, and the
// trace↔counter mirror must survive. CI stretches it via CLUSTER_SOAK.
func TestClusterSoakUnderStoreFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	b := newFedBed(t, 1315, 3, federation.Config{
		RebalanceInterval: 2 * sim.Second,
		RebalanceGap:      4,
	})
	spec, err := fault.ParseSpec("watchdrop=0.05,watchdelay=5ms:0.2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(b.k, spec, stats.NewStream(1315, "faults"))
	b.cs.SetFaultHooks(inj.StoreHooks())

	dur := clusterSoakDuration()
	fa := NewFederatedArrivals(b.k, b.fed, ArrivalsConfig{
		Lambda:   20,
		Duration: dur,
		Sizes:    []int{2, 4},
		YCSBOps:  1500, FSBytes: 32 << 20, Cloud9Bursts: 200,
	}, VMHooks{}, stats.NewStream(1316, "arr"))
	fa.Start()
	b.k.RunUntil(dur)

	// Quiesce: faults off, let in-flight migrations resolve and the
	// registry heal, then stop the periodic loops and audit.
	b.cs.SetFaultHooks(nil)
	b.k.RunUntil(dur + 2*sim.Second)
	b.fed.Stop()
	b.k.RunUntil(dur + 4*sim.Second)

	if n := len(b.fed.Migrating()); n != 0 {
		t.Fatalf("%d migrations still in flight after quiesce", n)
	}
	c := b.fed.Counters()
	if c.MigrateStarts != c.MigrateDones+c.MigrateAborts {
		t.Fatalf("migration ledger broken: %+v", c)
	}
	if fa.arrived != fa.Completed()+len(fa.running)+len(fa.queue) {
		t.Fatalf("VM ledger broken: arrived %d != completed %d + running %d + queued %d",
			fa.arrived, fa.Completed(), len(fa.running), len(fa.queue))
	}
	for _, uid := range fa.runningUIDs() {
		vm := fa.running[uid]
		if vm.frozen {
			t.Fatalf("%s left frozen after quiesce", uid)
		}
		if b.fed.Member(vm.host) == nil || b.fed.Member(vm.host).Guest(vm.dom) == nil {
			t.Fatalf("%s lost its guest (host %s dom %d)", uid, vm.host, vm.dom)
		}
	}
	// Every host healed back into the registry despite dropped beats.
	reg := b.fed.Registry()
	if got := reg.Hosts(); len(got) != 3 {
		t.Fatalf("registry = %v, want all 3 hosts after healing", got)
	}
	for _, id := range reg.Hosts() {
		if !reg.Live(id) {
			t.Fatalf("host %s not live after faults removed", id)
		}
	}
	assertCountersMirrorTrace(t, b)
	t.Logf("soak %v: %d arrived, %d completed, %d migrations (%d aborted), %d expiries, %d faults",
		dur, fa.arrived, fa.Completed(), c.MigrateDones, c.MigrateAborts, c.Expiries, inj.Total())
}
