package netstore

// Tests for the per-watch event index (srvWatch.idx, clientWatch.idx): each
// watch finds its own queued events by path, so two watches coalesce
// independently, and an entry lives exactly as long as its frame whether
// or not the watch outlives it.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// wedge holds the writer goroutine of every connection watching base on
// a peer that does not read: more event bytes than a socket buffer takes,
// the first one alone over the flush budget, so the flush that blocks
// carries fillers only and everything after them stays queued.
func wedge(t *testing.T, writer *Client, base string) (fillers int) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := writer.Write(fmt.Sprintf("%s/filler/%d", base, i), strings.Repeat("f", MaxValue)); err != nil {
			t.Fatal(err)
		}
	}
	return 8
}

// wireEvent is one decoded frame off a raw socket: an event, or (watch 0)
// a reply.
type wireEvent struct {
	watch       uint32
	path, value string
}

func readWire(t *testing.T, nc net.Conn, n int) []wireEvent {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr := frameReader{r: nc}
	var out []wireEvent
	for i := 0; i < n; i++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, n, err)
		}
		d := &dec{b: payload}
		switch op := Op(d.u8()); op {
		case OpReply:
			out = append(out, wireEvent{})
		case OpEvent:
			d.u32()
			ev := wireEvent{watch: d.u32(), path: d.str(), value: d.str()}
			if err := d.done(); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			out = append(out, ev)
		default:
			t.Fatalf("frame %d: %v", i, op)
		}
	}
	return out
}

// watchingConn returns the server's side of the one connection that has
// watches registered.
func watchingConn(t *testing.T, srv *Server) *srvConn {
	t.Helper()
	srv.mu.Lock()
	var conns []*srvConn
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	var found *srvConn
	srv.do(func(*tree) {
		for _, c := range conns {
			if len(c.watches) > 0 {
				found = c
			}
		}
	})
	if found == nil {
		t.Fatal("no connection with a watch")
	}
	return found
}

func request(t *testing.T, nc net.Conn, e *enc) {
	t.Helper()
	if err := writeFrame(nc, e.b); err != nil {
		t.Fatal(err)
	}
}

// TestOverlappingWatchesCoalesceIndependently: one connection watches a
// subtree and a subtree of it. Behind a wedged writer, 100 writes to 4
// keys under both leave 4 events queued per watch — not 4 in all, not
// 200 — and each watch is then delivered every key's final value, in
// first-change order.
func TestOverlappingWatchesCoalesceIndependently(t *testing.T) {
	srv, sock := startServer(t, Options{WriteTimeout: time.Minute})
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)
	stalled := dialStalled(t, "unix", sock, 3, base, false)
	request(t, stalled, (&enc{}).op(OpWatch, 3).u32(2).str(base+"/hot"))
	if _, status, err := readReply(stalled); err != nil || status != nil {
		t.Fatalf("second watch: %v / %v", status, err)
	}
	fillers := wedge(t, writer, base)

	before := srv.Counters()
	var order []string
	final := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("%s/hot/k%d", base, i%4), fmt.Sprintf("value-%03d", i)
		if i < 4 {
			order = append(order, k)
		}
		final[k] = v
		if err := writer.Write(k, v); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Counters()
	if got := after.Events - before.Events; got != 8 {
		t.Errorf("100 writes to 4 keys under two watches queued %d events, want 8", got)
	}
	if got := after.Coalesced - before.Coalesced; got != 192 {
		t.Errorf("100 writes to 4 keys under two watches coalesced %d events, want 192", got)
	}
	c := watchingConn(t, srv)
	c.qmu.Lock()
	for cwid, w := range c.watches {
		if len(w.idx) < 4 {
			t.Errorf("watch %d indexes %d queued events, want its own 4 at least", cwid, len(w.idx))
		}
	}
	c.qmu.Unlock()

	got := map[uint32][]wireEvent{}
	for _, ev := range readWire(t, stalled, fillers+8)[fillers:] {
		got[ev.watch] = append(got[ev.watch], ev)
	}
	for _, cwid := range []uint32{1, 2} {
		if len(got[cwid]) != 4 {
			t.Fatalf("watch %d was delivered %d events, want 4: %v", cwid, len(got[cwid]), got[cwid])
		}
		for i, ev := range got[cwid] {
			if want := order[i]; ev.path != want || ev.value != final[want] {
				t.Errorf("watch %d event %d = %s=%s, want %s=%s", cwid, i, ev.path, ev.value, want, final[want])
			}
		}
	}
	waitIndexesEmpty(t, c)
}

// waitIndexesEmpty: once the writer has drained the queue, no per-watch
// index holds an entry.
func waitIndexesEmpty(t *testing.T, c *srvConn, more ...map[string]int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var left, queued int
		c.srv.do(func(*tree) { // the store lock for watches, then qmu: enqueueEvent's order
			c.qmu.Lock()
			queued = c.q.Len() + c.nEvents
			for _, w := range c.watches {
				left += len(w.idx)
			}
			for _, idx := range more {
				left += len(idx)
			}
			c.qmu.Unlock()
		})
		if queued == 0 {
			if left != 0 {
				t.Errorf("queue drained with %d index entries left", left)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %d frames, %d index entries", queued, left)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnwatchWithEventsQueued: a watch is removed while its events sit
// behind a wedged writer, and a new watch takes the same client id. The
// old registration's entries leave its index with their frames; the new
// one starts empty, so its first event for a path is a frame of its own
// and is delivered after the old one — no path's last delivered value is
// older than one delivered before it — and a drained queue leaves every
// index empty, the unregistered one included.
func TestUnwatchWithEventsQueued(t *testing.T) {
	srv, sock := startServer(t, Options{WriteTimeout: time.Minute})
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)
	stalled := dialStalled(t, "unix", sock, 3, base, false)
	fillers := wedge(t, writer, base)
	c := watchingConn(t, srv)
	// registered reports watch 1's index as the table has it now (nil:
	// not registered); the stalled peer cannot read its replies, so this
	// is how the test learns that a request of its has run.
	registered := func() (idx map[string]int) {
		srv.do(func(*tree) { idx = c.watches[1].idx })
		return idx
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
		}
	}
	old := registered()

	write := func(k, v string) {
		t.Helper()
		if err := writer.Write(base+"/"+k, v); err != nil {
			t.Fatal(err)
		}
	}
	write("a", "a1")
	write("b", "b1")
	request(t, stalled, (&enc{}).op(OpUnwatch, 3).u32(1))
	await("the unwatch never ran", func() bool { return registered() == nil })
	write("a", "unwatched") // nobody is told
	request(t, stalled, (&enc{}).op(OpWatch, 4).u32(1).str(base))
	await("the second watch never registered", func() bool { return registered() != nil })
	fresh := registered()
	write("a", "a2")
	write("a", "a3") // coalesces into a2's frame, not a1's
	write("c", "c1")
	c.qmu.Lock()
	_, oldA := old[base+"/a"]
	_, oldC := old[base+"/c"]
	if !oldA || oldC || len(fresh) != 2 {
		t.Errorf("old registration indexes %v, new one %v; want a and b (and fillers) in the old, a and c in the new", old, fresh)
	}
	c.qmu.Unlock()

	var events []wireEvent
	for _, ev := range readWire(t, stalled, fillers+6)[fillers:] {
		if ev.watch != 0 {
			events = append(events, ev)
		}
	}
	want := []wireEvent{
		{1, base + "/a", "a1"}, {1, base + "/b", "b1"}, // queued before the unwatch
		{1, base + "/a", "a3"}, {1, base + "/c", "c1"},
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("delivered %v\nwant      %v", events, want)
	}
	waitIndexesEmpty(t, c, old)
}

// TestClientIndexPerWatch is the client's half: behind a callback stuck
// in a callback, two overlapping watches each keep the net change per
// path; an unwatched one's queued events are discarded, its index with
// it; and a drained queue leaves every index empty.
func TestClientIndexPerWatch(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)
	var mu sync.Mutex
	seen := map[string][]string{} // "wide"/"deep"/"gone" -> path=value, in order
	release := make(chan struct{})
	stuck := make(chan struct{}, 1)
	note := func(who string) func(string, string) {
		return func(p, v string) {
			if p == base+"/gate" {
				stuck <- struct{}{}
				<-release
				return
			}
			mu.Lock()
			seen[who] = append(seen[who], p[len(base):]+"="+v)
			mu.Unlock()
		}
	}
	if _, err := c.Watch(base, note("wide")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch(base+"/hot", note("deep")); err != nil {
		t.Fatal(err)
	}
	gone, err := c.Watch(base+"/hot", note("gone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(base+"/gate", "shut"); err != nil {
		t.Fatal(err)
	}
	<-stuck
	for i := 0; i < 40; i++ {
		if err := writer.Write(fmt.Sprintf("%s/hot/k%d", base, i%2), fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The events are on their way to c; a round trip on c itself arrives
	// behind them.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.evMu.Lock()
	for cwid, w := range c.watches {
		if len(w.idx) != 2 {
			t.Errorf("watch %d indexes %d queued events, want 2", cwid, len(w.idx))
		}
	}
	if n := c.evq.Len(); n != 6 {
		t.Errorf("%d events queued for three watches of two changed keys, want 6", n)
	}
	c.evMu.Unlock()
	c.Unwatch(gone)
	close(release)
	// A marker write tells when the loop's callbacks have caught up.
	if err := writer.Write(base+"/hot/end", "end"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(seen["wide"]) + len(seen["deep"])
		mu.Unlock()
		if n == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the callbacks never caught up: %v", seen)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := "[/hot/k0=38 /hot/k1=39 /hot/end=end]"
	if fmt.Sprint(seen["wide"]) != want || fmt.Sprint(seen["deep"]) != want {
		t.Errorf("wide saw %v, deep saw %v, want each %s", seen["wide"], seen["deep"], want)
	}
	if len(seen["gone"]) != 0 {
		t.Errorf("the unwatched callback ran: %v", seen["gone"])
	}
	c.evMu.Lock()
	defer c.evMu.Unlock()
	if len(c.watches) != 2 {
		t.Errorf("%d watch indexes after an unwatch of one of three, want 2", len(c.watches))
	}
	for cwid, w := range c.watches {
		if c.evq.Len() == 0 && len(w.idx) != 0 {
			t.Errorf("queue drained, watch %d still indexes %v", cwid, w.idx)
		}
	}
}
