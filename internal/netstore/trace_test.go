package netstore

// Tests for the live trace: the server records for whoever is listening
// (docs/WIRE_PROTOCOL.md §5). It keeps no ring, a ServeTrace subscriber
// gets the records of every operation that takes the store lock after it
// attached, and an operation nobody tails builds no record.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
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

// tail is one live trace subscriber: a connection to a ServeTrace
// endpoint and the NDJSON lines it has streamed so far.
type tail struct {
	nc    net.Conn
	lines chan string
}

// tails reports how many subscribers the server has attached.
func tails(srv *Server) (n int) {
	srv.do(func(t *tree) { n = len(t.tails) })
	return n
}

// waitTails blocks until the server has exactly n subscribers attached.
func waitTails(t *testing.T, srv *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tails(srv) != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d trace subscribers attached, want %d", tails(srv), n)
		}
	}
}

// dialTrace connects to srv's trace over a fresh Unix socket and returns
// once the subscription is attached: every operation the caller starts
// from here on is on the stream.
func dialTrace(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "trace.sock"))
	if err != nil {
		t.Fatalf("trace listen: %v", err)
	}
	go srv.ServeTrace(l)
	before := tails(srv)
	nc, err := net.Dial("unix", l.Addr().String())
	if err != nil {
		t.Fatalf("trace dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	waitTails(t, srv, before+1)
	return nc
}

// tailT is dialTrace plus a reader: a subscription whose lines the test
// takes one at a time.
func tailT(t *testing.T, srv *Server) *tail {
	t.Helper()
	nc := dialTrace(t, srv)
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	// Room for the longest stream a test leaves unread while it looks
	// elsewhere (a 200-write burst is 400 lines); past that the reader
	// blocks and the server's own buffer starts to drop.
	tl := &tail{nc: nc, lines: make(chan string, 4096)}
	go func() {
		defer close(tl.lines)
		sc := bufio.NewScanner(nc)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			select {
			case tl.lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	return tl
}

// next returns the stream's next record and the line that carried it;
// what names the record the caller is waiting for.
func (tl *tail) next(t *testing.T, what string) (trace.Record, string) {
	t.Helper()
	select {
	case line, ok := <-tl.lines:
		var rec trace.Record
		if !ok {
			t.Fatalf("trace stream closed before %s", what)
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		return rec, line
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s on the trace within 5s", what)
	}
	panic("unreachable")
}

// find skips to the first record want accepts.
func (tl *tail) find(t *testing.T, what string, want func(trace.Record) bool) trace.Record {
	t.Helper()
	for {
		if rec, _ := tl.next(t, what); want(rec) {
			return rec
		}
	}
}

// detach closes the subscription and waits until the server has let go
// of it, leaving left subscribers.
func (tl *tail) detach(t *testing.T, srv *Server, left int) {
	t.Helper()
	tl.nc.Close()
	waitTails(t, srv, left)
}

// recorded reads the recorder's lifetime record count.
func recorded(srv *Server) (n uint64) {
	srv.do(func(t *tree) { n = t.rec.Recorded() })
	return n
}

func TestTraceTail(t *testing.T) {
	srv, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	events := make(chan string, 64)
	if _, err := c.Watch(base, func(p, v string) { events <- p + "=" + v }); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(base+"/before", "unseen"); err != nil {
		t.Fatal(err)
	}
	// Untailed, only the connection's lifecycle was recorded: the write,
	// the watch and their store records were never built.
	if n := recorded(srv); n != 1 {
		t.Fatalf("%d records before the first tail, want the connect alone", n)
	}

	a, b := tailT(t, srv), tailT(t, srv)
	if err := c.Write(base+"/k", "v1"); err != nil {
		t.Fatal(err)
	}
	bt := c.NewBatch()
	for i := 0; i < 3; i++ {
		bt.Write(fmt.Sprintf("%s/b%d", base, i), fmt.Sprint(i))
	}
	if _, err := bt.Run(); err != nil {
		t.Fatal(err)
	}
	// One write is wire.op, store.write, store.watch; a batch is its
	// wire.batch, then the writes as they ran, then their deliveries, run
	// as the store lock's hold ended.
	want := []trace.Record{
		{Kind: trace.KindWireOp, Dom: 3, Path: base + "/k", Value: "write"},
		{Kind: trace.KindStoreWrite, Dom: 3, Path: base + "/k", Value: "v1"},
		{Kind: trace.KindStoreWatch, Dom: 3, Path: base + "/k", Value: "v1"},
		{Kind: trace.KindWireBatch, Dom: 3, Value: "batch", Size: 3},
	}
	for _, kind := range []trace.Kind{trace.KindStoreWrite, trace.KindStoreWatch} {
		for i := 0; i < 3; i++ {
			want = append(want, trace.Record{Kind: kind, Dom: 3, Path: fmt.Sprintf("%s/b%d", base, i), Value: fmt.Sprint(i)})
		}
	}
	for i, w := range want {
		got, line := a.next(t, "record")
		// The stream starts at the subscription: nothing from before it, and
		// Seq counts the records built, so the first is the connect's successor.
		if w.Seq = uint64(1 + i); !reflect.DeepEqual(got, w) {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
		if _, second := b.next(t, "record"); second != line {
			t.Fatalf("record %d: the second tail read %q, the first %q", i, second, line)
		}
	}
	for i := 0; i < 4; i++ {
		<-events // the tail observed deliveries the client also got
	}

	// A rare kind reaches the tail like any other, and the first tail
	// leaving changes nothing for the second.
	a.detach(t, srv, 1)
	dialT(t, sock, 5)
	if rec, _ := b.next(t, "record"); rec.Kind != trace.KindWireConn || rec.Value != "connect" || rec.Dom != 5 {
		t.Fatalf("after a connect the tail read %+v", rec)
	}
	if err := c.Write(base+"/k", "v2"); err != nil {
		t.Fatal(err)
	}
	b.find(t, "store.watch of v2", func(r trace.Record) bool { return r.Kind == trace.KindStoreWatch && r.Value == "v2" })

	// After the last detach an operation builds nothing.
	b.detach(t, srv, 0)
	quiet := recorded(srv)
	for i := 0; i < 20; i++ {
		if err := c.Write(base+"/k", fmt.Sprint("untailed", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bt.Write(base+"/k", "batched").Read(base + "/k").Run(); err != nil {
		t.Fatal(err)
	}
	if n := recorded(srv); n != quiet {
		t.Fatalf("%d records built with no tail attached", n-quiet)
	}
	// And a later tail picks the stream up where the sequence stands.
	late := tailT(t, srv)
	if err := c.Write(base+"/k", "v3"); err != nil {
		t.Fatal(err)
	}
	if rec, _ := late.next(t, "record"); rec.Kind != trace.KindWireOp || rec.Seq != quiet {
		t.Fatalf("a later tail starts at %+v, want the wire.op at seq %d", rec, quiet)
	}
}

// TestTraceTailRacesWriters attaches and detaches tails while four
// connections write: under -race this is the check that the tailed bit,
// the store's recorder and the subscriber set only move under the store
// lock; plainly, that every tail sees whole operations in Seq order.
func TestTraceTailRacesWriters(t *testing.T) {
	srv, sock := startServer(t, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := dialT(t, sock, store.DomID(1+w))
		key := store.DomainPath(store.DomID(1+w)) + "/k"
		if _, err := c.Watch(key, func(string, string) {}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Write(key, fmt.Sprint(i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 8; round++ {
		a := tailT(t, srv)
		b := tailT(t, srv)
		first, _ := a.next(t, "record")
		if first.Kind != trace.KindWireOp {
			t.Fatalf("round %d: a tail's first record is %+v: it attached inside an operation", round, first)
		}
		prev := first
		for i := 0; i < 30; i++ {
			rec, _ := a.next(t, "record")
			if rec.Seq != prev.Seq+1 {
				t.Fatalf("round %d: seq %d follows %d", round, rec.Seq, prev.Seq)
			}
			// A write's three records are contiguous: nothing of another
			// operation slips inside one hold of the lock.
			if prev.Kind == trace.KindWireOp && (rec.Kind != trace.KindStoreWrite || rec.Path != prev.Path) {
				t.Fatalf("round %d: %+v follows %+v", round, rec, prev)
			}
			if prev.Kind == trace.KindStoreWrite && (rec.Kind != trace.KindStoreWatch || rec.Value != prev.Value) {
				t.Fatalf("round %d: %+v follows %+v", round, rec, prev)
			}
			prev = rec
		}
		a.detach(t, srv, 1)
		b.next(t, "record")
		b.detach(t, srv, 0)
	}
	close(stop)
	wg.Wait()
	if ctr := srv.Counters(); ctr.Evicted != 0 {
		t.Fatalf("a writer was evicted: %+v", ctr)
	}
}

// observedRun plays one fixed script of operations, a batch, two
// transactions and a watch against a fresh server and reports what a
// client can observe of it — every reply, every event, in order — plus
// where it left the store. Each watched write waits for its event, so
// nothing can coalesce and the transcript is exact.
func observedRun(t *testing.T, tailed bool) (transcript []string, version uint64, tree map[string]string) {
	srv, sock := startServer(t, Options{})
	var tl *tail
	if tailed {
		tl = tailT(t, srv)
	}
	guest, dom0 := dialT(t, sock, 3), dialT(t, sock, store.Dom0)
	base := store.DomainPath(3)
	events := make(chan string, 16)
	say := func(format string, a ...any) { transcript = append(transcript, fmt.Sprintf(format, a...)) }
	event := func() {
		select {
		case ev := <-events:
			say("event %s", ev)
		case <-time.After(5 * time.Second):
			t.Fatal("a watched write's event never arrived")
		}
	}

	say("write %v", guest.Write(base+"/flush_now", "0"))
	_, err := guest.Watch(base, func(p, v string) { events <- p + "=" + v })
	say("watch %v", err)
	say("write %v", dom0.Write(base+"/flush_now", "1"))
	event()
	v, err := guest.Read(base + "/flush_now")
	say("read %q %v", v, err)
	say("hidden write %v", dom0.Write(base+"/dom0-owned", "x")) // filtered: no event
	_, err = guest.Read(base + "/dom0-owned")
	say("hidden read %v", err)
	say("grant %v", dom0.Grant(base+"/dom0-owned", 3, store.PermRead))
	say("granted write %v", dom0.Write(base+"/dom0-owned", "y"))
	event()

	res, err := guest.NewBatch().Write(base+"/a", "1").Write(base+"/b", "2").Read(base + "/a").List(base).Read(base + "/nope").Run()
	say("batch %v %v", res, err)
	event()
	event()

	txn, err := guest.Begin()
	say("begin %v", err)
	v, err = txn.Read(base + "/a")
	say("txn read %q %v", v, err)
	say("txn write %v", txn.Write(base+"/a", "10"))
	say("interloper %v", dom0.Write(base+"/a", "9"))
	event()
	say("commit %v", txn.Commit())
	txn, _ = guest.Begin()
	say("txn write %v", txn.Write(base+"/a", "11"))
	say("txn write %v", txn.Write(base+"/b", "20"))
	say("commit %v", txn.Commit())
	event()
	event()

	say("denied remove %v", guest.Remove(base+"/dom0-owned"))
	say("remove %v", guest.Remove(base+"/a"))
	event()
	names, err := dom0.List(base)
	say("list %v %v", names, err)
	say("tree %v", treeOf(srv, store.Dom0, base))
	srv.Do(func(st *store.Store) { version = st.Version() })
	tree = treeOf(srv, store.Dom0, "/")
	if tailed {
		// The tail really was on the whole run, and kept up with it.
		tl.find(t, "the script's last wire.op", func(r trace.Record) bool {
			return r.Kind == trace.KindWireOp && r.Value == OpList.String()
		})
		if ctr := srv.Counters(); ctr.TraceDropped != 0 {
			t.Errorf("the tail dropped %d lines", ctr.TraceDropped)
		}
	}
	return transcript, version, tree
}

// TestTailingOnlyObserves: the same script with and without a tail
// attached leaves the same store and shows its clients the same replies
// and events. Attaching a recorder to the store mid-life changes what is
// recorded, never what is done.
func TestTailingOnlyObserves(t *testing.T) {
	plain, version, tree := observedRun(t, false)
	tailed, tversion, ttree := observedRun(t, true)
	if version != tversion || !maps.Equal(tree, ttree) {
		t.Errorf("store at v%d holding %v untailed, v%d holding %v tailed", version, tree, tversion, ttree)
	}
	for i := 0; i < max(len(plain), len(tailed)); i++ {
		var p, q string
		if i < len(plain) {
			p = plain[i]
		}
		if i < len(tailed) {
			q = tailed[i]
		}
		if p != q {
			t.Fatalf("step %d: untailed %q, tailed %q", i, p, q)
		}
	}
	if len(plain) < 25 || version == 0 {
		t.Fatalf("the script did not run: %d steps, store at v%d", len(plain), version)
	}
}

// TestNewServerKeepsNoRing: a server allocates no record ring. With one
// (65,536 records of 224 bytes) this delta read 14.7 MB.
func TestNewServerKeepsNoRing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv := NewServer(Options{})
	runtime.ReadMemStats(&after)
	defer srv.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("NewServer allocated %d KB, want under 256", got>>10)
	}
}

// TestUnreadTailCountsDrops: a tail that never reads fills its socket,
// then its line buffer, and from there on loses lines — the only copy,
// since the server retains none. The store does not wait for it, and the
// stats op says how many went.
func TestUnreadTailCountsDrops(t *testing.T) {
	srv, sock := startServer(t, Options{WriteTimeout: time.Second})
	dialTrace(t, srv) // and never read it

	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	// About a hundred store.write lines fill the socket; the line buffer
	// must then fill before the tail's write deadline cuts it, so a record
	// stays cheap enough to build a thousand in well under a WriteTimeout
	// under the race detector (16 KiB values took 1–2 s there).
	fat := strings.Repeat("x", 2<<10)
	const perFrame, frames = 128, 16 // 2 × traceBuffer records in all
	within(t, 20*time.Second, "writes against an unread tail", func() {
		for i := 0; i < frames && srv.Counters().TraceDropped == 0; i++ {
			b := c.NewBatch()
			for j := 0; j < perFrame; j++ {
				b.Write(base+"/k", fat)
			}
			if _, err := b.Run(); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	})
	ctr, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ctr.TraceDropped == 0 {
		t.Fatalf("an unread tail lost nothing over %d records: %+v", frames*(perFrame+1), ctr)
	}
	if ctr.Evicted != 0 {
		t.Fatalf("the writer paid for the tail: %+v", ctr)
	}
	// The tail is cut on write-stall evidence, like any other peer.
	waitTails(t, srv, 0)
}
