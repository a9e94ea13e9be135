package netstore

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// startServer brings up a server on a fresh Unix socket and tears both
// down with the test.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	return startServerOn(t, "unix", opts)
}

// transports are the two ways the server writes a connection's frames. A
// "unix" peer that dials as Dial does takes a shared-memory ring (on
// Linux), whose frames the goroutine that queued them writes; a "tcp"
// peer stays on its socket, whose frames the writer goroutine writes.
var transports = []string{"unix", "tcp"}

// startServerOn is startServer listening on network: a fresh Unix socket
// or a loopback TCP port. It returns the address to dial.
func startServerOn(t *testing.T, network string, opts Options) (*Server, string) {
	t.Helper()
	s := NewServer(opts)
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "stored.sock")
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr().String()
}

// treeOf flattens the subtree at root as dom sees it, read straight from
// the server's store: every node at or below root that dom may read, with
// its value — the tests' whole-tree oracle.
func treeOf(srv *Server, dom store.DomID, root string) map[string]string {
	nodes := map[string]string{}
	var walk func(st *store.Store, path string)
	walk = func(st *store.Store, path string) {
		if v, err := st.Read(dom, path); err == nil {
			nodes[path] = v
		}
		names, err := st.Children(dom, path)
		if err != nil {
			return
		}
		base := strings.TrimSuffix(path, "/") + "/"
		for _, name := range names {
			walk(st, base+name)
		}
	}
	srv.Do(func(st *store.Store) { walk(st, root) })
	return nodes
}

func dialT(t *testing.T, sock string, dom store.DomID) *Client {
	t.Helper()
	return dialOn(t, "unix", sock, dom)
}

func dialOn(t *testing.T, network, addr string, dom store.DomID) *Client {
	t.Helper()
	c, err := Dial(network, addr, dom, "")
	if err != nil {
		t.Fatalf("dial dom%d: %v", dom, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicOps(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)

	base := store.DomainPath(3)
	if err := c.Write(base+"/virt-dev/xvda/nr", "42"); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := c.Read(base + "/virt-dev/xvda/nr")
	if err != nil || v != "42" {
		t.Fatalf("read = %q, %v; want 42", v, err)
	}
	if _, err := c.Read(base + "/missing"); !errors.Is(err, store.ErrNoEntry) {
		t.Fatalf("missing read err = %v; want ErrNoEntry", err)
	}
	names, err := c.List(base + "/virt-dev")
	if err != nil || len(names) != 1 || names[0] != "xvda" {
		t.Fatalf("list = %v, %v; want [xvda]", names, err)
	}
	if err := c.Remove(base + "/virt-dev/xvda"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := c.Read(base + "/virt-dev/xvda"); !errors.Is(err, store.ErrNoEntry) {
		t.Fatalf("node survives remove: read err = %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestPermissionBoundary(t *testing.T) {
	_, sock := startServer(t, Options{})
	guest := dialT(t, sock, 3)
	intruder := dialT(t, sock, 5)
	dom0 := dialT(t, sock, store.Dom0)

	secret := store.DomainPath(3) + "/secret"
	if err := guest.Write(secret, "mine"); err != nil {
		t.Fatalf("guest write: %v", err)
	}
	// Another guest can neither read nor write dom3's subtree.
	if _, err := intruder.Read(secret); !errors.Is(err, store.ErrPermission) {
		t.Fatalf("cross-domain read err = %v; want ErrPermission", err)
	}
	if err := intruder.Write(secret, "stolen"); !errors.Is(err, store.ErrPermission) {
		t.Fatalf("cross-domain write err = %v; want ErrPermission", err)
	}
	// Dom0 reads everything.
	if v, err := dom0.Read(secret); err != nil || v != "mine" {
		t.Fatalf("dom0 read = %q, %v", v, err)
	}
	// An explicit grant opens the node to the intruder.
	if err := guest.Grant(secret, 5, store.PermRead); err != nil {
		t.Fatalf("grant: %v", err)
	}
	if v, err := intruder.Read(secret); err != nil || v != "mine" {
		t.Fatalf("granted read = %q, %v", v, err)
	}
}

func TestDom0Auth(t *testing.T) {
	_, sock := startServer(t, Options{Dom0Token: "s3cret"})
	if _, err := Dial("unix", sock, store.Dom0, "wrong"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad token err = %v; want ErrAuth", err)
	}
	c, err := Dial("unix", sock, store.Dom0, "s3cret")
	if err != nil {
		t.Fatalf("good token: %v", err)
	}
	c.Close()
	// Guests are not asked for the token.
	g, err := Dial("unix", sock, 7, "")
	if err != nil {
		t.Fatalf("guest dial: %v", err)
	}
	g.Close()
}

func TestWatchDelivery(t *testing.T) {
	_, sock := startServer(t, Options{})
	watcher := dialT(t, sock, 3)
	writer := dialT(t, sock, store.Dom0)

	type ev struct{ path, value string }
	got := make(chan ev, 16)
	base := store.DomainPath(3)
	// The guest creates its key first (guest-owned, so it can read it —
	// nodes Dom0 creates under a guest subtree are invisible to the
	// guest), then registers the watch, then Dom0 flips the value.
	if err := watcher.Write(base+"/flush_now", "0"); err != nil {
		t.Fatalf("create key: %v", err)
	}
	if _, err := watcher.Watch(base, func(p, v string) { got <- ev{p, v} }); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if err := writer.Write(base+"/flush_now", "1"); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case e := <-got:
		if e.path != base+"/flush_now" || e.value != "1" {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch event never arrived")
	}
	// A write the watcher cannot read must not leak through the watch.
	other := store.DomainPath(9)
	if err := writer.Write(other+"/private", "x"); err != nil {
		t.Fatalf("write other: %v", err)
	}
	// And unwatch stops the stream.
	if err := writer.Write(base+"/flush_now", "0"); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.value != "0" {
			t.Fatalf("second event = %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second event never arrived")
	}
}

func TestWatchCallbackMayReenterClient(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)

	done := make(chan string, 1)
	_, err := c.Watch(base+"/ping", func(p, v string) {
		// An RPC issued from the callback reads its own reply: no deadlock.
		if v == "go" {
			if err := c.Write(base+"/pong", "ok"); err != nil {
				done <- err.Error()
				return
			}
			got, err := c.Read(base + "/pong")
			if err != nil {
				done <- err.Error()
				return
			}
			done <- got
		}
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if err := c.Write(base+"/ping", "go"); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case v := <-done:
		if v != "ok" {
			t.Fatalf("callback result = %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant callback deadlocked")
	}
}

func TestUnwatchStopsEvents(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)

	got := make(chan string, 16)
	id, err := c.Watch(base, func(p, v string) { got <- p })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(base+"/a", "1"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no event before unwatch")
	}
	c.Unwatch(id)
	if err := c.Write(base+"/b", "2"); err != nil {
		t.Fatal(err)
	}
	// The write round trip has fully drained the store loop; anything the
	// watch produced would already be queued. Ping once more to flush the
	// client's loop, then assert silence.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		t.Fatalf("event %q after unwatch", p)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTxnCommitAndConflict(t *testing.T) {
	_, sock := startServer(t, Options{})
	a := dialT(t, sock, store.Dom0)
	b := dialT(t, sock, store.Dom0)
	path := store.DomainPath(0) + "/counter"
	if err := a.Write(path, "0"); err != nil {
		t.Fatal(err)
	}

	ta, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ta.Read(path); err != nil || v != "0" {
		t.Fatalf("txn read = %q, %v", v, err)
	}
	if err := ta.Write(path, "1"); err != nil {
		t.Fatal(err)
	}
	// A conflicting write from another connection lands first.
	if err := b.Write(path, "99"); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); !errors.Is(err, store.ErrConflict) {
		t.Fatalf("commit err = %v; want ErrConflict", err)
	}
	// Retry succeeds.
	ta2, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta2.Read(path); err != nil {
		t.Fatal(err)
	}
	if err := ta2.Write(path, "100"); err != nil {
		t.Fatal(err)
	}
	if err := ta2.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if v, _ := a.Read(path); v != "100" {
		t.Fatalf("final value = %q", v)
	}
	// Operations on a finished transaction answer ErrUnknownTxn.
	if err := ta2.Write(path, "x"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("finished txn err = %v; want ErrUnknownTxn", err)
	}
}

func TestTxnAbortAndLimit(t *testing.T) {
	_, sock := startServer(t, Options{MaxTxns: 2})
	c := dialT(t, sock, store.Dom0)
	path := store.DomainPath(0) + "/k"

	txn, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write(path, "v"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(path); !errors.Is(err, store.ErrNoEntry) {
		t.Fatalf("aborted write applied: read err = %v", err)
	}
	t1, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Abort()
	t2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Abort()
	if _, err := c.Begin(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("txn over limit err = %v; want ErrBadRequest", err)
	}
}

// helloFrame builds a tokenless handshake request (id 1) for raw-socket
// tests.
func helloFrame(ver uint8, dom store.DomID) []byte {
	hs := &enc{}
	hs.op(OpHandshake, 1)
	hs.u32(Magic)
	hs.u8(ver)
	hs.u32(uint32(dom))
	hs.str("")
	return hs.b
}

// replyHdr is a reply payload up to its status byte: opcode, request id.
const replyHdr = 1 + 4

// readReply reads one frame off a raw socket, requires it to be a reply,
// and returns its status as an error plus the decoder positioned at the
// op-specific body.
func readReply(nc net.Conn) (body *dec, status, err error) {
	payload, err := readFrame(nc)
	if err != nil {
		return nil, nil, err
	}
	d := &dec{b: payload}
	if op := Op(d.u8()); op != OpReply {
		return nil, nil, fmt.Errorf("got %v, want a reply", op)
	}
	d.u32() // request id
	return d, errOf(Status(d.u8()), d.str()), nil
}

// dialStalled connects and handshakes as dom, registers a watch on
// prefix, and then never reads again — a deliberately wedged client.
// Nothing has been written under prefix yet, so the two frames it does
// read are exactly the two replies. With ring it offers a shared-memory
// ring as Dial does, and what it never reads is the ring, which it keeps
// mapped (on a system without rings, or over TCP, it stays on the socket).
func dialStalled(t *testing.T, network, addr string, dom store.DomID, prefix string, ring bool) net.Conn {
	t.Helper()
	nc, err := net.Dial(network, addr)
	if err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	var region []byte
	if ring {
		region, err = sendHello(nc, helloFrame(ProtocolVersion, dom))
	} else {
		err = writeFrame(nc, helloFrame(ProtocolVersion, dom))
	}
	if err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	if _, status, err := readReply(nc); err != nil || status != nil {
		t.Fatalf("stalled dial: %v / %v", status, err)
	}
	conn := net.Conn(nc)
	if region != nil {
		if conn, err = takeRing(nc, region); err != nil {
			t.Fatalf("stalled dial: %v", err)
		}
	}
	t.Cleanup(func() { conn.Close() })
	w := &enc{}
	w.op(OpWatch, 2)
	w.u32(1)
	w.str(prefix)
	if err := writeFrame(conn, w.b); err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	if _, status, err := readReply(conn); err != nil || status != nil {
		t.Fatalf("stalled dial: %v / %v", status, err)
	}
	return conn
}

// TestStalledClientEvicted pins the eviction contract (docs/
// WIRE_PROTOCOL.md §4) on both transports: a wedged watcher — one whose
// shared-memory ring fills ("unix"), one whose socket does ("tcp") — is
// cut off on write-stall evidence, between one and two WriteTimeouts after
// its writer stalled, while a live watcher on the same subtree —
// overflowing the same tiny queue, but draining — is never severed and
// ends up with the final value of every path.
func TestStalledClientEvicted(t *testing.T) {
	for _, network := range transports {
		t.Run(network, func(t *testing.T) { stalledClientEvicted(t, network) })
	}
}

func stalledClientEvicted(t *testing.T, network string) {
	const wt = 300 * time.Millisecond
	srv, addr := startServerOn(t, network, Options{NotifyQueue: 4, WriteTimeout: wt})
	// The blaster shares dom3 so the dom3 watchers can read every node it
	// creates (Dom0-created nodes would be invisible to them).
	writer := dialOn(t, network, addr, 3)
	base := store.DomainPath(3)

	dialStalled(t, network, addr, 3, base, true)

	live := dialOn(t, network, addr, 3)
	var liveMu sync.Mutex
	liveSeen := map[string]string{}
	if _, err := live.Watch(base, func(p, v string) {
		liveMu.Lock()
		liveSeen[p] = v
		liveMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// A request answered on each connection says its handshake, and with
	// it the switch to the ring, is complete.
	if err := writer.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Counters().RingConns; network == "unix" && runtime.GOOS == "linux" && n != 3 {
		t.Fatalf("%d connections on a ring, want the writer, the stalled watcher and the live one", n)
	}

	// Distinct paths with fat values: nothing can coalesce, both
	// watchers' queues overflow, and the stalled one's ring or socket
	// buffers fill.
	want := map[string]string{}
	blastStart := time.Now()
	for i := 0; i < 200; i++ {
		p, v := fmt.Sprintf("%s/blast/%d", base, i), strings.Repeat(fmt.Sprint(i%10), 32<<10)
		want[p] = v
		if err := writer.Write(p, v); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	want[base+"/blast/final"] = "final"
	if err := writer.Write(base+"/blast/final", "final"); err != nil {
		t.Fatal(err)
	}
	blastEnd := time.Now()
	// A writer stalls at some point of the blast and is cut at its armed
	// deadline: at least one WriteTimeout after the stall, at most two.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Counters().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stalled client was never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	evicted := time.Now()
	if first := evicted.Sub(blastStart); first < wt {
		t.Errorf("the stalled client was evicted %v into the blast, before one WriteTimeout (%v)", first, wt)
	}
	if last := evicted.Sub(blastEnd); last > 2*wt+100*time.Millisecond {
		t.Errorf("the stalled client was evicted %v after the blast, past two WriteTimeouts (%v)", last, 2*wt)
	}
	for {
		missing := ""
		liveMu.Lock()
		for p, v := range want {
			if liveSeen[p] != v {
				missing = p
				break
			}
		}
		liveMu.Unlock()
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live client never saw the final value of %s", missing)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live.Err() != nil {
		t.Fatalf("live client died: %v", live.Err())
	}
	if n := srv.Counters().Evicted; n != 1 {
		t.Fatalf("evicted %d connections, want only the stalled one", n)
	}
}

// TestOverflowRepairsFinalValues drives a draining watcher far past its
// queue bound in one store-loop burst (a 200-write batch against
// NotifyQueue 4): it must go lagged, stay connected, and still observe
// every path's value, in first-write order — on a ring, where the flush
// that empties the queue must repair, since no writer wakes to, as on a
// socket.
func TestOverflowRepairsFinalValues(t *testing.T) {
	for _, network := range transports {
		t.Run(network, func(t *testing.T) { overflowRepairsFinalValues(t, network) })
	}
}

func overflowRepairsFinalValues(t *testing.T, network string) {
	srv, addr := startServerOn(t, network, Options{NotifyQueue: 4})
	tl := tailT(t, srv)
	c := dialOn(t, network, addr, 3)
	base := store.DomainPath(3)
	const n = 200
	got := make(chan string, n)
	if _, err := c.Watch(base, func(p, v string) { got <- p + "=" + v }); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatch()
	for i := 0; i < n; i++ {
		b.Write(fmt.Sprintf("%s/k%d", base, i), fmt.Sprint(i))
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case ev := <-got:
			if want := fmt.Sprintf("%s/k%d=%d", base, i, i); ev != want {
				t.Fatalf("event %d = %s, want %s", i, ev, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("watcher stopped after %d of %d events", i, n)
		}
	}
	if ctr := srv.Counters(); ctr.Evicted != 0 || ctr.Lagged == 0 {
		t.Fatalf("draining watcher evicted, or no key counted as lagged: %+v", ctr)
	}
	// The burst overflowed the queue, or the repair path went unexercised:
	// the lag record is on the trace before the batch's last delivery.
	tl.find(t, "wire.conn lag (the burst never overflowed the queue)", func(r trace.Record) bool {
		return r.Kind == trace.KindWireConn && r.Value == "lag" && r.Dom == 3
	})
}

// TestWriterFlushes: 1,000 watched-write round trips on a ring with room
// leave Counters.WriterFlushes at 0 — the goroutine that queued each
// frame wrote it — and over TCP do not, the writer goroutine having
// written them. A connection's count is added as its writer exits, so it
// is read once the server has closed.
func TestWriterFlushes(t *testing.T) {
	for _, network := range transports {
		t.Run(network, func(t *testing.T) {
			srv, addr := startServerOn(t, network, Options{})
			c := dialOn(t, network, addr, 3)
			key := store.DomainPath(3) + "/k"
			seen := make(chan struct{}, 1)
			if _, err := c.Watch(key, func(string, string) { seen <- struct{}{} }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				if err := c.Write(key, fmt.Sprint(i)); err != nil {
					t.Fatal(err)
				}
				<-seen
			}
			onRing := srv.Counters().RingConns == 1
			c.Close()
			srv.Close()
			n := srv.Counters().WriterFlushes
			if onRing == (n != 0) {
				t.Errorf("on a ring: %v; writer flushes: %d", onRing, n)
			}
			t.Logf("on a ring: %v; writer flushes: %d", onRing, n)
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	_, sock := startServer(t, Options{})
	const clients = 8
	const opsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(dom store.DomID) {
			defer wg.Done()
			c, err := Dial("unix", sock, dom, "")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := store.DomainPath(dom)
			for j := 0; j < opsPer; j++ {
				p := fmt.Sprintf("%s/k%d", base, j%5)
				if err := c.Write(p, fmt.Sprint(j)); err != nil {
					errs <- err
					return
				}
				if _, err := c.Read(p); err != nil {
					errs <- err
					return
				}
				if j%10 == 0 {
					txn, err := c.Begin()
					if err != nil {
						errs <- err
						return
					}
					txn.Write(p, "txn")
					if err := txn.Commit(); err != nil && !errors.Is(err, store.ErrConflict) {
						errs <- err
						return
					}
				}
			}
		}(store.DomID(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}
}

// TestWireTraceRecords: a connection's lifecycle is recorded and counted
// whether or not anyone is listening; its operations are recorded for a
// tail (TestTraceTail pins the stream itself).
func TestWireTraceRecords(t *testing.T) {
	srv, sock := startServer(t, Options{})
	path := store.DomainPath(3) + "/k"
	dialT(t, sock, 3).Write(path, "untailed")
	var wireOps, wireConns uint64
	srv.do(func(t *tree) {
		wireOps = t.rec.Count(trace.KindWireOp)
		wireConns = t.rec.Count(trace.KindWireConn)
	})
	if wireOps != 0 || wireConns != 1 {
		t.Errorf("untailed: %d wire.op and %d wire.conn records counted, want 0 and the connect", wireOps, wireConns)
	}
	tl := tailT(t, srv)
	c := dialT(t, sock, 4)
	if err := c.Write(store.DomainPath(4)+"/k", "v"); err != nil {
		t.Fatal(err)
	}
	// One rule for every single-frame op: recorded before it runs, so the
	// ops that touch no path and the ones that fail are on the trace too.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(store.DomainPath(4) + "/missing"); !errors.Is(err, store.ErrNoEntry) {
		t.Fatalf("read of a missing key: %v", err)
	}
	if err := (&Txn{c: c, tid: 9}).Commit(); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("commit of a transaction never begun: %v", err)
	}
	c.Close()
	for _, want := range []trace.Record{
		{Kind: trace.KindWireConn, Dom: 4, Value: "connect"},
		{Kind: trace.KindWireOp, Dom: 4, Value: "write", Path: store.DomainPath(4) + "/k"},
		{Kind: trace.KindWireOp, Dom: 4, Value: "ping"},
		{Kind: trace.KindWireOp, Dom: 4, Value: "stats"},
		{Kind: trace.KindWireOp, Dom: 4, Value: "read", Path: store.DomainPath(4) + "/missing"},
		{Kind: trace.KindWireOp, Dom: 4, Value: "txn.commit"},
		{Kind: trace.KindWireConn, Dom: 4, Value: "close"},
	} {
		tl.find(t, fmt.Sprintf("%s %s", want.Kind, want.Value), func(r trace.Record) bool {
			want.Seq, want.At = r.Seq, r.At
			return reflect.DeepEqual(r, want)
		})
	}
}

func TestStatsCounters(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	if err := c.Write(store.DomainPath(3)+"/k", "v"); err != nil {
		t.Fatal(err)
	}
	ctr, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if ctr.Accepted == 0 || ctr.Active == 0 || ctr.StoreWrites == 0 {
		t.Fatalf("counters look empty: %+v", ctr)
	}
	// A Dom0-created node under the guest's subtree is invisible to the
	// guest's watch; the stats op shows the withheld notification.
	if _, err := c.Watch(store.DomainPath(3), func(string, string) {}); err != nil {
		t.Fatal(err)
	}
	if err := dialT(t, sock, store.Dom0).Write(store.DomainPath(3)+"/dom0-owned", "v"); err != nil {
		t.Fatal(err)
	}
	if ctr, err = c.Stats(); err != nil || ctr.StoreFiltered != 1 {
		t.Fatalf("StoreFiltered = %d (%v), want 1", ctr.StoreFiltered, err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	e := &enc{}
	e.op(OpWrite, 7)
	e.str("/a/b")
	e.str("value")
	e.u64(123456789)
	e.u8(3)
	d := &dec{b: e.b}
	if got := Op(d.u8()); got != OpWrite {
		t.Fatalf("op = %v", got)
	}
	if got := d.u32(); got != 7 {
		t.Fatalf("id = %d", got)
	}
	if got := d.str(); got != "/a/b" {
		t.Fatalf("str = %q", got)
	}
	if got := d.str(); got != "value" {
		t.Fatalf("str = %q", got)
	}
	if got := d.u64(); got != 123456789 {
		t.Fatalf("u64 = %d", got)
	}
	if got := d.u8(); got != 3 {
		t.Fatalf("u8 = %d", got)
	}
	if err := d.done(); err != nil {
		t.Fatalf("done: %v", err)
	}
	// Truncation is an error, not a panic.
	d2 := &dec{b: e.b[:3]}
	d2.u8()
	d2.u32()
	if d2.err == nil {
		t.Fatal("truncated decode did not error")
	}
}

func TestStatusErrorMapping(t *testing.T) {
	cases := []error{
		store.ErrNoEntry, store.ErrPermission, store.ErrConflict,
		store.ErrBadPath, ErrUnknownTxn, ErrAuth, ErrBadRequest,
	}
	for _, want := range cases {
		st := statusOf(fmt.Errorf("wrapped: %w", want))
		back := errOf(st, "ctx")
		if !errors.Is(back, want) {
			t.Errorf("round trip of %v through status %d lost identity (got %v)", want, st, back)
		}
	}
	if statusOf(nil) != StatusOK || errOf(StatusOK, "") != nil {
		t.Error("nil error mapping broken")
	}
}
