package netstore

// Handshake version check, batched frames, delta-watch sync, and the
// views that span several domains' subtrees on the one store loop.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"iorchestra/internal/federation"
	"iorchestra/internal/store"
)

// --- Handshake ---------------------------------------------------------------

// TestHandshakeVersion pins the no-negotiation rule on raw sockets: the
// one protocol version is accepted and echoed back in the reply, and a
// hello carrying any other version — older or newer — is refused with
// ErrBadRequest followed by a clean close.
func TestHandshakeVersion(t *testing.T) {
	_, sock := startServer(t, Options{})
	for _, ver := range []uint8{1, ProtocolVersion, 3} {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(nc, helloFrame(ver, 3)); err != nil {
			t.Fatal(err)
		}
		d, rerr, err := readReply(nc)
		if err != nil {
			t.Fatalf("v%d hello: no reply: %v", ver, err)
		}
		if ver == ProtocolVersion {
			if accepted := d.u8(); rerr != nil || accepted != ProtocolVersion {
				t.Fatalf("v%d hello = version %d, %v; want accepted", ver, accepted, rerr)
			}
			d.u64() // store version
			if err := d.done(); err != nil {
				t.Fatalf("v%d hello reply layout: %v", ver, err)
			}
			continue
		}
		if !errors.Is(rerr, ErrBadRequest) {
			t.Fatalf("v%d hello err = %v, want ErrBadRequest", ver, rerr)
		}
		if _, err := readFrame(nc); err != io.EOF {
			t.Fatalf("v%d hello: after the refusal got %v, want a clean close (EOF)", ver, err)
		}
	}
}

// --- Batched frames ----------------------------------------------------------

func TestBatchAllOps(t *testing.T) {
	srv, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)

	res, err := c.NewBatch().
		Write(base+"/a", "1").
		Write(base+"/b/deep", "2").
		Read(base+"/a").
		Read(base+"/b").
		Read(base+"/nope").
		List(base).
		Grant(base+"/a", 4, store.PermRead).
		Ping().
		Read(base + "/missing"). // per-op error, not a batch error
		Remove(base + "/a").
		Run()
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results, want 10", len(res))
	}
	for i, r := range res[:8] {
		if r.Err != nil && i != 4 {
			t.Fatalf("op %d err = %v", i, r.Err)
		}
	}
	if res[2].Value != "1" {
		t.Errorf("batched read = %q", res[2].Value)
	}
	if res[3].Err != nil || !errors.Is(res[4].Err, store.ErrNoEntry) {
		t.Errorf("batched reads of a present and an absent node = %v/%v, want nil/ErrNoEntry", res[3].Err, res[4].Err)
	}
	wantNames := []string{"a", "b"}
	if !sort.StringsAreSorted(res[5].Names) || len(res[5].Names) != 2 ||
		res[5].Names[0] != wantNames[0] || res[5].Names[1] != wantNames[1] {
		t.Errorf("batched list = %v, want %v", res[5].Names, wantNames)
	}
	if !errors.Is(res[8].Err, store.ErrNoEntry) {
		t.Errorf("batched missing read err = %v, want ErrNoEntry", res[8].Err)
	}
	if res[9].Err != nil {
		t.Errorf("batched remove err = %v", res[9].Err)
	}
	if _, err := c.Read(base + "/a"); !errors.Is(err, store.ErrNoEntry) {
		t.Errorf("batched remove did not take effect: read err = %v", err)
	}

	ctr := srv.Counters()
	if ctr.Batches != 1 || ctr.BatchOps != 10 {
		t.Errorf("counters = %d batches / %d ops, want 1/10", ctr.Batches, ctr.BatchOps)
	}
}

func TestBatchEmptyAndOversize(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	if res, err := c.NewBatch().Run(); err != nil || res != nil {
		t.Fatalf("empty batch = %v, %v", res, err)
	}
	b := c.NewBatch()
	for i := 0; i <= MaxBatchOps; i++ {
		b.Ping()
	}
	if _, err := b.Run(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversize batch err = %v, want ErrBadRequest", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unhealthy: %v", err)
	}
}

func TestBatchAcrossDomains(t *testing.T) {
	srv, sock := startServer(t, Options{})
	c := dialT(t, sock, store.Dom0)
	b := c.NewBatch()
	for dom := 1; dom <= 8; dom++ {
		b.Write(fmt.Sprintf("%s/k", store.DomainPath(store.DomID(dom))), fmt.Sprint(dom))
	}
	res, err := b.Run()
	if err != nil {
		t.Fatalf("cross-domain batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	// Results come back in request order.
	b = c.NewBatch()
	for dom := 1; dom <= 8; dom++ {
		b.Read(fmt.Sprintf("%s/k", store.DomainPath(store.DomID(dom))))
	}
	res, err = b.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Value != fmt.Sprint(i+1) {
			t.Fatalf("read %d = %q, %v; want %d", i, r.Value, r.Err, i+1)
		}
	}
	if ctr := srv.Counters(); ctr.Batches != 2 || ctr.BatchOps != 16 {
		t.Fatalf("counters = %+v", ctr)
	}
}

// --- Delta sync and Mirror ---------------------------------------------------

func TestSyncModes(t *testing.T) {
	srv, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	for i := 0; i < 4; i++ {
		if err := c.Write(fmt.Sprintf("%s/k%d", base, i), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}

	m := c.NewMirror(base)
	mode, err := m.Sync()
	if err != nil || mode != store.SyncFull {
		t.Fatalf("bootstrap sync = mode %d, %v; want full", mode, err)
	}
	if v, ok := m.Get(base + "/k2"); !ok || v != "2" {
		t.Fatalf("mirror k2 = %q, %v", v, ok)
	}

	// Unchanged subtree: hash match, no payload.
	mode, err = m.Sync()
	if err != nil || mode != store.SyncMatch {
		t.Fatalf("idle sync = mode %d, %v; want match", mode, err)
	}

	// Small change: delta with exactly the touched paths.
	if err := c.Write(base+"/k1", "changed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(base + "/k3"); err != nil {
		t.Fatal(err)
	}
	mode, err = m.Sync()
	if err != nil || mode != store.SyncDelta {
		t.Fatalf("delta sync = mode %d, %v; want delta", mode, err)
	}
	if v, _ := m.Get(base + "/k1"); v != "changed" {
		t.Fatalf("mirror missed delta: k1 = %q", v)
	}
	if _, ok := m.Get(base + "/k3"); ok {
		t.Fatal("mirror did not prune removed key")
	}

	// Whole-subtree removal prunes by prefix.
	if err := c.Write(base+"/sub/x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(base+"/sub/y", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(base + "/sub"); err != nil {
		t.Fatal(err)
	}
	if mode, err = m.Sync(); err != nil || mode != store.SyncDelta {
		t.Fatalf("post-remove sync = mode %d, %v", mode, err)
	}
	for _, p := range []string{base + "/sub", base + "/sub/x", base + "/sub/y"} {
		if _, ok := m.Get(p); ok {
			t.Fatalf("mirror kept pruned node %s", p)
		}
	}

	ctr := srv.Counters()
	if ctr.SyncFulls == 0 || ctr.SyncMatches == 0 || ctr.SyncDeltas == 0 {
		t.Fatalf("sync mode counters = %+v", ctr)
	}
}

func TestSyncJournalOverflowFallsBackToFull(t *testing.T) {
	srv, sock := startServer(t, Options{})
	srv.Do(func(st *store.Store) { st.SetJournalCap(8) })
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	if err := c.Write(base+"/seed", "1"); err != nil {
		t.Fatal(err)
	}
	m := c.NewMirror(base)
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Blow past the journal window so the mirror's anchor is evicted.
	for i := 0; i < 64; i++ {
		if err := c.Write(fmt.Sprintf("%s/k%d", base, i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	mode, err := m.Sync()
	if err != nil || mode != store.SyncFull {
		t.Fatalf("overflowed sync = mode %d, %v; want full", mode, err)
	}
	if m.Len() != 66 { // seed + 64 keys + home node
		t.Fatalf("mirror has %d nodes, want 66", m.Len())
	}
	if ctr := srv.Counters(); ctr.SyncFulls < 2 {
		t.Fatalf("expected two full syncs, counters = %+v", ctr)
	}
}

func TestSyncDomainRecreation(t *testing.T) {
	// Remove-then-recreate of a whole domain home must heal through the
	// journal: the mirror prunes on the removal and re-learns the home.
	_, sock := startServer(t, Options{})
	c0 := dialT(t, sock, store.Dom0)
	c := dialT(t, sock, 7)
	base := store.DomainPath(7)
	if err := c.Write(base+"/k", "v"); err != nil {
		t.Fatal(err)
	}
	m := c0.NewMirror(base)
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c0.Remove(base); err != nil {
		t.Fatal(err)
	}
	// A fresh handshake for dom7 recreates the home (AddDomain).
	c2 := dialT(t, sock, 7)
	if err := c2.Write(base+"/k2", "back"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(base + "/k"); ok {
		t.Fatal("mirror kept node removed with the domain")
	}
	if v, ok := m.Get(base + "/k2"); !ok || v != "back" {
		t.Fatalf("mirror missed recreated key: %q, %v", v, ok)
	}
}

func TestSyncBadRoot(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	for _, root := range []string{"/", "/local", store.Root, store.DomainPath(3) + "/deep"} {
		if _, err := c.SyncSubtree(root, 0, 0); !errors.Is(err, ErrBadRequest) {
			t.Errorf("SyncSubtree(%q) err = %v, want ErrBadRequest", root, err)
		}
	}
}

// TestSyncParityWireAndLocalView: OpSync and federation.LocalView are two
// surfaces of one function, store.SyncSubtree. Over one store history —
// writes, a remove-then-recreate, a node the guest cannot read, a journal
// overflow — the Dom0 wire reply equals LocalView's page in all three
// modes, and a guest's wire reply equals the store's verdict for that
// guest, without the node it cannot read.
func TestSyncParityWireAndLocalView(t *testing.T) {
	srv, sock := startServer(t, Options{})
	srv.Do(func(st *store.Store) { st.SetJournalCap(8) })
	c0, g := dialT(t, sock, store.Dom0), dialT(t, sock, 5)
	root := store.DomainPath(5)
	write := func(c *Client, rel, v string) {
		t.Helper()
		if err := c.Write(root+rel, v); err != nil {
			t.Fatal(err)
		}
	}
	// check syncs over the wire as c and in process via local, and
	// requires the same page in the wanted mode.
	check := func(label string, c *Client, local func(*store.Store) (store.SyncPage, error), since, known uint64, want store.SyncMode) store.SyncPage {
		t.Helper()
		wire, werr := c.SyncSubtree(root, since, known)
		var loc store.SyncPage
		var lerr error
		srv.Do(func(st *store.Store) { loc, lerr = local(st) })
		if werr != nil || lerr != nil {
			t.Fatalf("%s: wire err %v, local err %v", label, werr, lerr)
		}
		if len(wire.Pairs) == 0 {
			wire.Pairs = nil // the decoder's empty slice is the store's nil
		}
		if !reflect.DeepEqual(wire, loc) {
			t.Fatalf("%s: wire page\n%+v\n!= local page\n%+v", label, wire, loc)
		}
		if wire.Mode != want {
			t.Fatalf("%s: mode %v, want %v", label, wire.Mode, want)
		}
		return wire
	}
	asDom0 := func(since, known uint64) func(*store.Store) (store.SyncPage, error) {
		return func(st *store.Store) (store.SyncPage, error) {
			return federation.LocalView{St: st}.SyncSubtree(root, since, known)
		}
	}
	has := func(page store.SyncPage, path string) bool {
		for _, kv := range page.Pairs {
			if kv.Path == path {
				return true
			}
		}
		return false
	}

	write(g, "/a", "1")
	write(g, "/sub/x", "1")
	write(c0, "/secret", "s") // Dom0-owned under the guest's home: unreadable for dom 5
	full := check("bootstrap", c0, asDom0(^uint64(0), ^uint64(0)), ^uint64(0), ^uint64(0), store.SyncFull)
	check("idle", c0, asDom0(full.Version, full.Hash), full.Version, full.Hash, store.SyncMatch)

	if err := g.Remove(root + "/sub"); err != nil {
		t.Fatal(err)
	}
	write(g, "/sub/y", "2")
	write(g, "/a", "2")
	write(c0, "/secret", "s2")
	delta := check("delta", c0, asDom0(full.Version, full.Hash), full.Version, full.Hash, store.SyncDelta)
	if !has(delta, root+"/secret") || !delta.Pairs[0].Removed || delta.Pairs[0].Path != root+"/sub" {
		t.Fatalf("Dom0 delta should lead with the /sub prune marker and carry /secret: %+v", delta)
	}
	guest := check("guest delta", g, func(st *store.Store) (store.SyncPage, error) {
		return st.SyncSubtree(5, root, full.Version, full.Hash)
	}, full.Version, full.Hash, store.SyncDelta)
	if has(guest, root+"/secret") {
		t.Fatalf("guest delta leaked a node the guest cannot read: %+v", guest)
	}

	for i := 0; i < 64; i++ {
		write(g, fmt.Sprintf("/k%d", i), "v")
	}
	check("overflow", c0, asDom0(delta.Version, delta.Hash), delta.Version, delta.Hash, store.SyncFull)
}

// --- Views across domains ----------------------------------------------------

func TestRootViewsAcrossDomains(t *testing.T) {
	_, sock := startServer(t, Options{})
	c0 := dialT(t, sock, store.Dom0)
	doms := []store.DomID{1, 2, 3, 4, 5}
	for _, dom := range doms {
		if err := c0.Write(store.DomainPath(dom)+"/k", fmt.Sprint(dom)); err != nil {
			t.Fatal(err)
		}
	}
	// "0" is Dom0's own home, created by its handshake.
	names, err := c0.List(store.Root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"0", "1", "2", "3", "4", "5"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("root list = %v, want %v", names, want)
	}
	for _, dom := range doms {
		if v, err := c0.Read(store.DomainPath(dom) + "/k"); err != nil || v != fmt.Sprint(dom) {
			t.Fatalf("dom0 read of dom%d's key = %q, %v", dom, v, err)
		}
	}
	if _, err := c0.Read(store.Root); err != nil {
		t.Fatalf("the structural spine is unreadable: %v", err)
	}
}

func TestRootWatchAcrossDomains(t *testing.T) {
	_, sock := startServer(t, Options{})
	c0 := dialT(t, sock, store.Dom0)
	events := make(chan string, 64)
	// A structural-prefix watch sees writes under every domain.
	if _, err := c0.Watch(store.Root, func(path, value string) {
		events <- path + "=" + value
	}); err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for dom := store.DomID(1); dom <= 4; dom++ {
		clients = append(clients, dialT(t, sock, dom))
	}
	for i, c := range clients {
		if err := c.Write(store.DomainPath(store.DomID(i+1))+"/k", "x"); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	for i := 0; i < 4; i++ {
		got[<-events] = true
	}
	for dom := 1; dom <= 4; dom++ {
		key := fmt.Sprintf("%s/k=x", store.DomainPath(store.DomID(dom)))
		if !got[key] {
			t.Fatalf("root watch missed %s (got %v)", key, got)
		}
	}
	// A domain-prefix watch sees only its own subtree.
	dom1Events := make(chan string, 8)
	id, err := c0.Watch(store.DomainPath(1), func(path, value string) {
		dom1Events <- path
	})
	if err != nil {
		t.Fatal(err)
	}
	clients[1].Write(store.DomainPath(2)+"/other", "y")
	clients[0].Write(store.DomainPath(1)+"/mine", "z")
	if p := <-dom1Events; p != store.DomainPath(1)+"/mine" {
		t.Fatalf("domain watch got %s", p)
	}
	select {
	case p := <-dom1Events:
		t.Fatalf("domain watch leaked cross-domain event %s", p)
	default:
	}
	c0.Unwatch(id)
}

func TestTxnAcrossDomains(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, store.Dom0)
	keys := []string{store.DomainPath(1) + "/k", store.DomainPath(2) + "/k"}
	for _, k := range keys {
		if err := c.Write(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	// One transaction reads and writes under two domains and commits
	// atomically.
	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, err := txn.Read(k); err != nil || v != "v" {
			t.Fatalf("txn read %s = %q, %v", k, v, err)
		}
		if err := txn.Write(k, "committed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, _ := c.Read(k); v != "committed" {
			t.Fatalf("post-commit read %s = %q", k, v)
		}
	}
	// A conflict under either domain fails the whole transaction.
	txn, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := txn.Read(k); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(k, "lost"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(keys[1], "raced"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("racing commit err = %v, want ErrConflict", err)
	}
	if v, _ := c.Read(keys[0]); v != "committed" {
		t.Fatalf("conflicted txn leaked a write: %s = %q", keys[0], v)
	}
}
