package netstore

// Handshake version check, batched frames, and the views that span
// several domains' subtrees on the one store loop.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"

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
