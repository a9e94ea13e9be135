package netstore_test

// Wire/in-process parity: the ISSUE 5 acceptance criterion. A guest
// driven through netstore.Client against a live server must make exactly
// the Algorithm 1–3 decisions an in-process store yields on the same
// seed, and replaying a fixed-seed platform's store-write stream through
// the wire must reconstruct a byte-identical tree.

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iorchestra"
	"iorchestra/internal/guest"
	"iorchestra/internal/netstore"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// --- Transport abstraction ---------------------------------------------------

// pTxn is the transaction surface the scripted guest publishes weights
// through (Algorithm 3's atomic weight update).
type pTxn interface {
	Write(path, value string) error
	Commit() error
}

// pConn is the store surface both scripted actors run on; the in-process
// store and the netstore client each satisfy it.
type pConn interface {
	Write(path, value string) error
	Read(path string) (string, error)
	Watch(prefix string, fn func(path, value string)) (store.WatchID, error)
	beginTxn() (pTxn, error)
}

type localConn struct {
	st  *store.Store
	dom store.DomID
}

func (l localConn) Write(p, v string) error       { return l.st.Write(l.dom, p, v) }
func (l localConn) Read(p string) (string, error) { return l.st.Read(l.dom, p) }
func (l localConn) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	return l.st.Watch(l.dom, prefix, fn)
}
func (l localConn) beginTxn() (pTxn, error) { return l.st.Begin(l.dom), nil }

type wireConn struct{ c *netstore.Client }

func (w wireConn) Write(p, v string) error       { return w.c.Write(p, v) }
func (w wireConn) Read(p string) (string, error) { return w.c.Read(p) }
func (w wireConn) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	return w.c.Watch(prefix, fn)
}
func (w wireConn) beginTxn() (pTxn, error) { return w.c.Begin() }

// plog is the shared decision log both actors append to. Each actor logs
// its decision before issuing the writes that trigger the other side, so
// the combined order is identical whether delivery is an inline sim-step
// cascade or two socket round trips.
type plog struct {
	mu    sync.Mutex
	lines []string
}

func (l *plog) add(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *plog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// --- Scripted actors ---------------------------------------------------------

const (
	parityGuestDom = store.DomID(3)
	parityRounds   = 30
	paritySeed     = 1315
)

// parityKeys is everything the exchange touches; the guest pre-creates
// all of them (guest-owned) so the manager's writes stay readable — the
// same registration discipline core.Driver documents.
var parityKeys = []string{
	"alg1/nr_dirty", "alg1/flush_now",
	"alg2/congest_query", "alg2/verdict", "alg2/release",
	"alg3/weight/0", "alg3/weight/1", "alg3/total_weight",
	"alg3/target/0", "alg3/target/1", "alg3/targets_ready",
}

// parityGuest is the scripted guest-side driver: it publishes seeded
// dirty-page counts (Algorithm 1), raises congestion queries (Algorithm
// 2) and transactionally publishes I/O weights (Algorithm 3), reacting
// to the manager's verdicts exactly as they arrive on its watch.
type parityGuest struct {
	conn pConn
	base string
	rng  *stats.Stream
	log  *plog
	fail func(error)
	done func()
}

func (g *parityGuest) key(rel string) string { return g.base + "/" + rel }

func (g *parityGuest) startRound() {
	nr := g.rng.Intn(16)
	g.log.add("guest: publish nr_dirty=%d", nr)
	g.write("alg1/nr_dirty", fmt.Sprint(nr))
}

func (g *parityGuest) write(rel, v string) {
	if err := g.conn.Write(g.key(rel), v); err != nil {
		g.fail(fmt.Errorf("guest write %s: %w", rel, err))
	}
}

// onEvent dispatches the guest's watch stream.
func (g *parityGuest) onEvent(path, value string) {
	rel := strings.TrimPrefix(path, g.base+"/")
	switch rel {
	case "alg1/flush_now":
		if value == "1" {
			g.log.add("guest: sync dirty pages")
		} else {
			g.log.add("guest: no flush needed")
		}
		if q := g.rng.Intn(16); q >= 6 {
			g.log.add("guest: congestion trigger depth=%d, query host", q)
			g.write("alg2/congest_query", "1")
		} else {
			g.log.add("guest: queue calm")
			g.publishWeights()
		}
	case "alg2/verdict":
		switch value {
		case "veto":
			g.log.add("guest: released by veto")
			g.publishWeights()
		case "confirm":
			g.log.add("guest: held (host congested)")
		}
	case "alg2/release":
		if value == "1" {
			g.log.add("guest: queue release, wake producers")
			g.publishWeights()
		}
	case "alg3/targets_ready":
		if value != "1" {
			return
		}
		t0, err0 := g.conn.Read(g.key("alg3/target/0"))
		t1, err1 := g.conn.Read(g.key("alg3/target/1"))
		if err0 != nil || err1 != nil {
			g.fail(fmt.Errorf("guest read targets: %v, %v", err0, err1))
			return
		}
		socket := 0
		if t1 > t0 {
			socket = 1
		}
		g.log.add("guest: move io process to socket %d (targets %s, %s)", socket, t0, t1)
		g.done()
	}
}

// publishWeights is Algorithm 3's guest half: an atomic (transactional)
// weight publication, total last so the manager triggers once.
func (g *parityGuest) publishWeights() {
	w0 := g.rng.Range(0.5, 2.0)
	w1 := g.rng.Range(0.5, 2.0)
	g.log.add("guest: publish weights w0=%.4f w1=%.4f", w0, w1)
	txn, err := g.conn.beginTxn()
	if err != nil {
		g.fail(fmt.Errorf("guest txn begin: %w", err))
		return
	}
	werr := txn.Write(g.key("alg3/weight/0"), fmt.Sprintf("%.4f", w0))
	if werr == nil {
		werr = txn.Write(g.key("alg3/weight/1"), fmt.Sprintf("%.4f", w1))
	}
	if werr == nil {
		werr = txn.Write(g.key("alg3/total_weight"), fmt.Sprintf("%.4f", w0+w1))
	}
	if werr == nil {
		werr = txn.Commit()
	}
	if werr != nil {
		g.fail(fmt.Errorf("guest weight txn: %w", werr))
	}
}

// parityMgr is the scripted Dom0 management module: flush verdicts from
// published dirty counts, congestion verdicts from seeded device
// pressure, and weight targets from published weights.
type parityMgr struct {
	conn pConn
	base string
	rng  *stats.Stream
	log  *plog
	fail func(error)
}

func (m *parityMgr) key(rel string) string { return m.base + "/" + rel }

func (m *parityMgr) write(rel, v string) {
	if err := m.conn.Write(m.key(rel), v); err != nil {
		m.fail(fmt.Errorf("mgr write %s: %w", rel, err))
	}
}

func (m *parityMgr) onEvent(path, value string) {
	rel := strings.TrimPrefix(path, m.base+"/")
	switch rel {
	case "alg1/nr_dirty":
		nr := 0
		fmt.Sscanf(value, "%d", &nr)
		if nr >= 8 {
			m.log.add("mgr: flush order (nr_dirty=%d, device idle)", nr)
			m.write("alg1/flush_now", "1")
		} else {
			m.log.add("mgr: flush skipped (nr_dirty=%d)", nr)
			m.write("alg1/flush_now", "0")
		}
	case "alg2/congest_query":
		if value != "1" {
			return
		}
		pending := m.rng.Intn(16)
		if pending >= 8 {
			// Log both decisions before either write so the combined
			// order is transport-independent.
			m.log.add("mgr: congestion confirmed (dev_pending=%d), hold", pending)
			m.log.add("mgr: host relieved, release FIFO")
			m.write("alg2/verdict", "confirm")
			m.write("alg2/release", "1")
		} else {
			m.log.add("mgr: congestion veto (dev_pending=%d)", pending)
			m.write("alg2/verdict", "veto")
		}
	case "alg3/total_weight":
		w0s, err0 := m.conn.Read(m.key("alg3/weight/0"))
		w1s, err1 := m.conn.Read(m.key("alg3/weight/1"))
		if err0 != nil || err1 != nil {
			m.fail(fmt.Errorf("mgr read weights: %v, %v", err0, err1))
			return
		}
		var w0, w1 float64
		fmt.Sscanf(w0s, "%f", &w0)
		fmt.Sscanf(w1s, "%f", &w1)
		t0 := w0 / (w0 + w1)
		t1 := w1 / (w0 + w1)
		m.log.add("mgr: weight targets t0=%.4f t1=%.4f", t0, t1)
		m.write("alg3/target/0", fmt.Sprintf("%.4f", t0))
		m.write("alg3/target/1", fmt.Sprintf("%.4f", t1))
		m.write("alg3/targets_ready", "1")
	}
}

// resetRound rewinds the per-round latch keys so the next round's writes
// re-fire watches cleanly; runs from the driver between rounds.
func resetRound(guest pConn, base string) error {
	for _, k := range []string{"alg2/congest_query", "alg2/release", "alg3/targets_ready"} {
		if err := guest.Write(base+"/"+k, "0"); err != nil {
			return err
		}
	}
	return nil
}

// runParityLocal drives the scripted exchange against an in-process
// store: each round's whole causal chain cascades inside kernel Run.
func runParityLocal(t *testing.T) []string {
	t.Helper()
	k := sim.NewKernel()
	st := store.New(k, 0)
	st.AddDomain(parityGuestDom)
	base := store.DomainPath(parityGuestDom)
	log := &plog{}
	var failure error
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
	}
	doneRounds := 0
	g := &parityGuest{
		conn: localConn{st, parityGuestDom}, base: base,
		rng: stats.NewStream(paritySeed, "parity/guest"), log: log,
		fail: fail, done: func() { doneRounds++ },
	}
	m := &parityMgr{
		conn: localConn{st, store.Dom0}, base: base,
		rng: stats.NewStream(paritySeed, "parity/mgr"), log: log, fail: fail,
	}
	for _, key := range parityKeys {
		if err := st.Write(parityGuestDom, base+"/"+key, ""); err != nil {
			t.Fatalf("seed %s: %v", key, err)
		}
	}
	if _, err := st.Watch(store.Dom0, base, m.onEvent); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Watch(parityGuestDom, base, g.onEvent); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < parityRounds; r++ {
		g.startRound()
		k.Run()
		if failure != nil {
			t.Fatalf("round %d: %v", r, failure)
		}
		if doneRounds != r+1 {
			t.Fatalf("round %d did not complete (done=%d)", r, doneRounds)
		}
		if err := resetRound(g.conn, base); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	return log.snapshot()
}

// runParityWire drives the identical exchange with both actors on
// netstore clients against a live server.
func runParityWire(t *testing.T) []string {
	t.Helper()
	srv := netstore.NewServer(netstore.Options{})
	t.Cleanup(srv.Close)
	sock := filepath.Join(t.TempDir(), "parity.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	gc, err := netstore.Dial("unix", sock, parityGuestDom, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gc.Close() })
	mc, err := netstore.Dial("unix", sock, store.Dom0, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })

	base := store.DomainPath(parityGuestDom)
	log := &plog{}
	fails := make(chan error, 8)
	fail := func(err error) {
		select {
		case fails <- err:
		default:
		}
	}
	done := make(chan struct{}, 1)
	g := &parityGuest{
		conn: wireConn{gc}, base: base,
		rng: stats.NewStream(paritySeed, "parity/guest"), log: log,
		fail: fail, done: func() { done <- struct{}{} },
	}
	m := &parityMgr{
		conn: wireConn{mc}, base: base,
		rng: stats.NewStream(paritySeed, "parity/mgr"), log: log, fail: fail,
	}
	for _, key := range parityKeys {
		if err := gc.Write(base+"/"+key, ""); err != nil {
			t.Fatalf("seed %s: %v", key, err)
		}
	}
	if _, err := mc.Watch(base, m.onEvent); err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Watch(base, g.onEvent); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < parityRounds; r++ {
		g.startRound()
		select {
		case <-done:
		case err := <-fails:
			t.Fatalf("round %d: %v", r, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d stalled; log so far:\n%s", r, strings.Join(log.snapshot(), "\n"))
		}
		if err := resetRound(g.conn, base); err != nil {
			t.Fatal(err)
		}
	}
	return log.snapshot()
}

// TestWireDecisionParity is the Algorithm 1–3 decision-parity acceptance
// test: the combined guest+manager decision log must be line-identical
// across the in-process store and the wire.
func TestWireDecisionParity(t *testing.T) {
	local := runParityLocal(t)
	// The run must exercise every branch, or parity proves nothing.
	joined := strings.Join(local, "\n")
	for _, want := range []string{
		"sync dirty pages", "no flush needed", // Algorithm 1 both ways
		"congestion veto", "congestion confirmed", "queue release", // Algorithm 2
		"weight targets", "move io process", // Algorithm 3
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("scenario never hit %q; decisions:\n%s", want, joined)
		}
	}
	t.Run("v2", func(t *testing.T) {
		wire := runParityWire(t)
		if len(local) != len(wire) {
			t.Fatalf("decision counts diverge: local %d, wire %d\nlocal:\n%s\nwire:\n%s",
				len(local), len(wire), strings.Join(local, "\n"), strings.Join(wire, "\n"))
		}
		for i := range local {
			if local[i] != wire[i] {
				t.Fatalf("decision %d diverges:\n  local: %s\n  wire:  %s", i, local[i], wire[i])
			}
		}
	})
}

// --- Golden-replay state parity ---------------------------------------------

// platformWrites runs a small fixed-seed platform (two flush-prone VMs
// under the full IOrchestra policy set) and returns its store-write
// stream in Seq order.
func platformWrites(t *testing.T) []trace.Record {
	t.Helper()
	p := iorchestra.NewPlatform(iorchestra.SystemIOrchestra, paritySeed,
		iorchestra.WithTracing(1<<19))
	for i := 0; i < 2; i++ {
		rt := p.NewVM(1, 1, guest.DiskConfig{
			Name: "xvda",
			CacheConfig: pagecache.Config{
				TotalPages:      (1 << 30) / pagecache.PageSize,
				DirtyRatio:      0.2,
				BackgroundRatio: 0.1,
				WritebackWindow: 64,
			},
		})
		fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FSConfig{
			Threads: 2, MeanFileSize: 1 << 20, Think: 6 * sim.Millisecond,
			WriteFrac: 0.8, AppendFrac: 0.1, ReadFrac: 0.05,
			BurstOn: 1500 * sim.Millisecond, BurstOff: 3500 * sim.Millisecond,
		}, p.Rng.Fork(fmt.Sprintf("fs%d", i)))
		fs.Start()
	}
	p.RunFor(3 * iorchestra.Second)
	if d := p.Trace.Dropped(); d > 0 {
		t.Fatalf("trace ring evicted %d records", d)
	}
	var writes []trace.Record
	for _, e := range p.Trace.Events() {
		if e.Kind == trace.KindStoreWrite {
			writes = append(writes, e)
		}
	}
	if len(writes) == 0 {
		t.Fatal("platform run produced no store writes")
	}
	return writes
}

// walkLocal flattens a store subtree as Dom0 sees it.
func walkLocal(st *store.Store, root string, out map[string]string) {
	if v, err := st.Read(store.Dom0, root); err == nil {
		out[root] = v
	}
	kids, err := st.List(store.Dom0, root)
	if err != nil {
		return
	}
	for _, k := range kids {
		walkLocal(st, root+"/"+k, out)
	}
}

// TestWireStateParity replays a fixed-seed platform's store-write stream
// twice — straight into a fresh store, and through per-domain netstore
// clients against a live server — and requires identical final trees.
func TestWireStateParity(t *testing.T) {
	writes := platformWrites(t)

	// Reference replay, in-process.
	k := sim.NewKernel()
	ref := store.New(k, 0)
	for _, w := range writes {
		ref.AddDomain(store.DomID(w.Dom))
		if err := ref.Write(store.DomID(w.Dom), w.Path, w.Value); err != nil {
			t.Fatalf("reference replay seq %d (dom%d %s): %v", w.Seq, w.Dom, w.Path, err)
		}
		k.Run()
	}
	want := map[string]string{}
	walkLocal(ref, store.Root, want)

	// Wire replay: one client per writing domain.
	srv := netstore.NewServer(netstore.Options{})
	t.Cleanup(srv.Close)
	sock := filepath.Join(t.TempDir(), "replay.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	clients := map[int]*netstore.Client{}
	clientFor := func(dom int) *netstore.Client {
		if c, ok := clients[dom]; ok {
			return c
		}
		c, err := netstore.Dial("unix", sock, store.DomID(dom), "")
		if err != nil {
			t.Fatalf("dial dom%d: %v", dom, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[dom] = c
		return c
	}
	for _, w := range writes {
		if err := clientFor(w.Dom).Write(w.Path, w.Value); err != nil {
			t.Fatalf("wire replay seq %d (dom%d %s): %v", w.Seq, w.Dom, w.Path, err)
		}
	}
	got := map[string]string{}
	srv.Do(func(st *store.Store) { walkLocal(st, store.Root, got) })

	if len(got) != len(want) {
		t.Errorf("tree sizes diverge: wire %d nodes, reference %d", len(got), len(want))
	}
	for p, wv := range want {
		if gv, ok := got[p]; !ok {
			t.Errorf("wire tree missing %s", p)
		} else if gv != wv {
			t.Errorf("value diverges at %s: wire %q, reference %q", p, gv, wv)
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			t.Errorf("wire tree has extra node %s", p)
		}
	}
}
