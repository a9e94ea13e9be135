package netstore

// Tests for the execution model: an operation runs to completion on the
// goroutine that decoded it, under the server's store lock
// (docs/WIRE_PROTOCOL.md §3.2), and a client's one loop reads the stream
// and runs the callbacks, handing the read token to a caller that waits
// for its reply (§4). CI runs them at GOMAXPROCS 1, 2 and the default,
// plain and under the race detector.

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// within fails the test unless fn returns inside d — the deadlock
// watchdog for tests whose failure mode is a hang.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// TestStoreLockTotalOrder drives two connections from 8 goroutines each
// over keys private to a goroutine and keys all 16 share. An in-process
// watch logs every delivery with the store version it ran at: with one
// write per operation and deliveries drained before the lock is
// released, the versions must climb by exactly one — a single total
// order, nothing slipped between a write and its fan-out. Against that
// log: each goroutine's own writes appear in the order it got their
// replies, and each wire watcher saw, per key, a subsequence of the
// key's history (events may coalesce) ending in its final value.
func TestStoreLockTotalOrder(t *testing.T) {
	srv, sock := startServer(t, Options{})
	const (
		dom     = store.DomID(3)
		workers = 8
		rounds  = 60
		shared  = 4
	)
	base := store.DomainPath(dom)
	conns := []*Client{dialT(t, sock, dom), dialT(t, sock, store.Dom0)}

	own := func(c, g int) string { return fmt.Sprintf("%s/own/c%dg%d", base, c, g) }
	shr := func(i int) string { return fmt.Sprintf("%s/shared/k%d", base, i) }
	// The guest creates every key so Dom0's writes stay readable to it.
	seed := conns[0].NewBatch()
	for c := range conns {
		for g := 0; g < workers; g++ {
			seed.Write(own(c, g), "seed")
		}
	}
	for i := 0; i < shared; i++ {
		seed.Write(shr(i), "seed")
	}
	if _, err := seed.Run(); err != nil {
		t.Fatal(err)
	}

	type delivery struct {
		path, value string
		version     uint64
	}
	var log []delivery // appended under the store lock, read after the run
	var v0 uint64
	srv.Do(func(st *store.Store) {
		v0 = st.Version()
		if _, err := st.Watch(store.Dom0, base, func(p, v string) {
			log = append(log, delivery{p, v, st.Version()})
		}); err != nil {
			t.Error(err)
		}
	})

	type seen struct {
		mu  sync.Mutex
		seq map[string][]string
	}
	views := make([]*seen, len(conns))
	for i, c := range conns {
		s := &seen{seq: map[string][]string{}}
		views[i] = s
		if _, err := c.Watch(base, func(p, v string) {
			s.mu.Lock()
			s.seq[p] = append(s.seq[p], v)
			s.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for ci, c := range conns {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					p := own(ci, g)
					if r%3 == 2 {
						p = shr((g + r) % shared)
					}
					if err := c.Write(p, fmt.Sprintf("c%dg%d#%d", ci, g, r)); err != nil {
						t.Errorf("conn %d worker %d round %d: %v", ci, g, r, err)
						return
					}
				}
			}()
		}
	}
	within(t, 30*time.Second, "writers", wg.Wait)
	const writes = 2 * workers * rounds

	var final uint64
	srv.Do(func(st *store.Store) { final = st.Version() })
	if final != v0+writes {
		t.Fatalf("store version %d after %d writes from %d", final, writes, v0)
	}
	if len(log) != writes {
		t.Fatalf("in-process watch saw %d deliveries, want %d", len(log), writes)
	}
	history := map[string][]string{}
	nextRound := map[string]int{} // writer tag -> the round its next write must carry
	for i, d := range log {
		if d.version != v0+uint64(i)+1 {
			t.Fatalf("delivery %d (%s=%s) ran at version %d, want %d: not one total order",
				i, d.path, d.value, d.version, v0+uint64(i)+1)
		}
		history[d.path] = append(history[d.path], d.value)
		tag, round, _ := strings.Cut(d.value, "#")
		if r, _ := strconv.Atoi(round); r != nextRound[tag] {
			t.Fatalf("delivery %d: %s wrote round %d where its round %d belongs: replies out of request order",
				i, tag, r, nextRound[tag])
		}
		nextRound[tag]++
	}

	// Every event was queued before its write's reply, but a client's loop
	// may still be a few callbacks behind: poll for the final values.
	deadline := time.Now().Add(10 * time.Second)
	for i, s := range views {
		for p, h := range history {
			for {
				s.mu.Lock()
				got := append([]string(nil), s.seq[p]...)
				s.mu.Unlock()
				if len(got) > 0 && got[len(got)-1] == h[len(h)-1] {
					at := 0
					for _, v := range got {
						for at < len(h) && h[at] != v {
							at++
						}
						if at == len(h) {
							t.Fatalf("conn %d saw %s go %v: not a subsequence of its history", i, p, got)
						}
						at++
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("conn %d never saw the final value %q of %s (saw %v)", i, h[len(h)-1], p, got)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// TestDoDuringClose races Do against Close: a Do that reports true ran
// fn before Close returned, one that reports false did not run it, and
// nothing runs once Close has returned.
func TestDoDuringClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv := NewServer(Options{})
		var closeReturned atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ran := false
					ok := srv.Do(func(*store.Store) {
						ran = true
						if closeReturned.Load() {
							t.Error("fn ran after Close returned")
						}
					})
					if ok != ran {
						t.Errorf("Do reported %v but fn ran: %v", ok, ran)
					}
					if !ok {
						return
					}
				}
			}()
		}
		srv.Close()
		closeReturned.Store(true)
		within(t, 10*time.Second, "Do callers after Close", wg.Wait)
		if srv.Do(func(*store.Store) { t.Error("fn ran on a closed server") }) {
			t.Error("Do on a closed server reported true")
		}
	}
}

// TestSelfEvictionUnderLock has a connection overflow its own notify
// backlog from inside its own operation: a wedged client watches the
// subtree it then blasts with one batch, so the eviction runs on that
// connection's reader goroutine while it holds the store lock, with its
// writer goroutine parked on the same lock for a repair. Neither may
// wait for the other.
func TestSelfEvictionUnderLock(t *testing.T) {
	srv, sock := startServer(t, Options{NotifyQueue: 1})
	base := store.DomainPath(3)
	nc := dialStalled(t, "unix", sock, 3, base, false)

	// 1 queued + 64 parked keys is the whole backlog; 1000 distinct paths
	// in one operation overrun it however fast the writer drains.
	b := &enc{}
	b.op(OpBatch, 3)
	b.u32(1000)
	for i := 0; i < 1000; i++ {
		b.u8(uint8(OpWrite))
		b.str(fmt.Sprintf("%s/k%d", base, i))
		b.str("v")
	}
	if err := writeFrame(nc, b.b); err != nil {
		t.Fatal(err)
	}
	within(t, 10*time.Second, "eviction", func() {
		for srv.Counters().Evicted == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	})
	// The lock was released and the store kept the whole batch.
	c := dialT(t, sock, 3)
	within(t, 10*time.Second, "read after the eviction", func() {
		if v, err := c.Read(base + "/k999"); err != nil || v != "v" {
			t.Errorf("read after the eviction = %q, %v", v, err)
		}
	})
	if n := srv.Counters().Evicted; n != 1 {
		t.Errorf("evicted %d connections, want 1", n)
	}
}

// TestCallbackRPCUnderEventBurst parks the client's loop in a callback
// and, from inside it, puts 5000 events and then an rpc reply on the
// client's own stream. The rpc, which reads the stream itself, must queue
// the events and get to its reply without waiting for the callbacks to
// run, since the loop that runs them is waiting for the reply. (With a
// bounded hand-off of 4096 this resolved only by the 30 s request
// timeout.)
func TestCallbackRPCUnderEventBurst(t *testing.T) {
	const burst = 5000
	// Room for the whole burst ahead of the reply in the server's queue.
	_, sock := startServer(t, Options{NotifyQueue: 2 * burst})
	c := dialT(t, sock, 3)
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)

	var got atomic.Int64
	rpcErr := make(chan error, 1)
	all := make(chan struct{})
	if _, err := c.Watch(base, func(p, v string) {
		if p == base+"/go" {
			for i := 0; i < burst; { // MaxBatchOps caps one frame below the burst
				b := writer.NewBatch()
				for end := i + burst/2; i < end; i++ {
					b.Write(fmt.Sprintf("%s/burst/%d", base, i), "x")
				}
				if _, err := b.Run(); err != nil {
					rpcErr <- err
					return
				}
			}
			_, err := c.Read(base + "/go")
			rpcErr <- err
			return
		}
		if got.Add(1) == burst {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(base+"/go", "1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-rpcErr:
		if err != nil {
			t.Fatalf("rpc from the callback: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rpc from the callback never returned: its read blocked behind the queued events")
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("the loop ran %d of %d queued callbacks", got.Load(), burst)
	}
}

// TestCallerChecksBeforeReading: a caller that takes the read token must
// look at its waiter before it reads. A client watches its own subtree
// and writes from the test's goroutine; the played server answers each
// write with the write's event and its reply in one socket write, so the
// loop reads both in one take, routes the reply, and lets the token go to
// run the callback. The test sends each write (send) and waits for its
// reply (await) only once the loop is inside that write's callback: the
// caller comes to a free token with its reply already in, as one that
// loses the race to the loop does. A read then would wait for a frame
// this server sends only when asked, so every wait must end within a
// bounded deadline — and, for good measure, so must plain Writes.
func TestCallerChecksBeforeReading(t *testing.T) {
	base := store.DomainPath(3)
	sock := playServer(t, func(nc net.Conn, br *bufio.Reader) {
		for n := 0; ; {
			req, err := readFrame(br)
			if err != nil {
				return
			}
			d := &dec{b: req}
			op := Op(d.u8())
			reply := replyTo(d.u32(), nil).b
			if op != OpWrite {
				writeFrame(nc, reply)
				continue
			}
			n++
			ev := (&enc{}).op(OpEvent, 0).u32(1).str(base + "/k").str(strconv.Itoa(n))
			nc.Write(framed(ev.b, reply))
		}
	})
	c, err := Dial("unix", sock, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var held atomic.Bool
	entered, release := make(chan string), make(chan struct{})
	if _, err := c.Watch(base, func(p, v string) {
		if held.Load() {
			entered <- v
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	held.Store(true)
	for i := 1; i <= 50; i++ {
		w, err := c.send(&req{op: OpWrite, path: base + "/k", value: "v"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := <-entered; v != strconv.Itoa(i) {
			t.Fatalf("write %d: the callback got event %s", i, v)
		}
		within(t, 5*time.Second, fmt.Sprintf("the wait for write %d's reply, routed before it began", i), func() { c.await(w) })
		if w.err != nil || w.body != okBody {
			t.Fatalf("write %d: reply %q, %v", i, w.body, w.err)
		}
		release <- struct{}{}
	}
	held.Store(false)
	for i := 0; i < 200; i++ {
		within(t, 5*time.Second, fmt.Sprintf("write %d", i), func() {
			if err := c.Write(base+"/k", "v"); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
}

// TestStandbyReaderBehindSlowCallback: a watch callback blocks for three
// WriteTimeouts without calling the client, while another connection
// writes far more distinct keys than a ring or a loopback socket holds.
// Nobody waits for a reply, so only the standby reader reads the stream
// behind the callback: the server must evict nobody, and once the
// callback returns, the latest value of every key must reach the callback.
func TestStandbyReaderBehindSlowCallback(t *testing.T) {
	for _, network := range transports {
		t.Run(network, func(t *testing.T) { standbyReader(t, network) })
	}
}

func standbyReader(t *testing.T, network string) {
	const wt = 200 * time.Millisecond
	srv, addr := startServerOn(t, network, Options{WriteTimeout: wt})
	c := dialOn(t, network, addr, 3)
	writer := dialOn(t, network, addr, 3)
	base := store.DomainPath(3)
	var mu sync.Mutex
	seen := map[string]string{}
	blocked := make(chan struct{})
	if _, err := c.Watch(base, func(p, v string) {
		if p == base+"/gate" {
			close(blocked)
			time.Sleep(3 * wt)
			return
		}
		mu.Lock()
		seen[p] = v
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(base+"/gate", "shut"); err != nil {
		t.Fatal(err)
	}
	within(t, 10*time.Second, "the gate's callback", func() { <-blocked })
	// Two values a key, fat ones: 6.4 MB in all, for 100 keys.
	want := map[string]string{}
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			p := fmt.Sprintf("%s/k/%d", base, i)
			v := strings.Repeat(strconv.Itoa(round), 32<<10)
			want[p] = v
			if err := writer.Write(p, v); err != nil {
				t.Fatalf("write %s: %v", p, err)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		missing := ""
		mu.Lock()
		for p, v := range want {
			if seen[p] != v {
				missing = p
				break
			}
		}
		mu.Unlock()
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the callback never saw the latest value of %s", missing)
		}
	}
	if n := srv.Counters().Evicted; n != 0 {
		t.Errorf("evicted %d connections behind a slow callback, want 0", n)
	}
	if err := c.Err(); err != nil {
		t.Errorf("the slow callback's client died: %v", err)
	}
}

// TestWriteRoundTripAllocs is the allocation budget of the frame path:
// one Client.Write with one watcher — request, store write, watch
// fan-out, reply, event, callback, both ends in this process — allocates
// at most 4 times, whether the server's flush writes the frames into a
// ring ("unix") or its writer goroutine writes them to a socket ("tcp").
// It read 33 when every operation crossed to a store goroutine over
// per-op channels and closures, and 5 while the store built a closure per
// fan-out and the event was encoded into a buffer of its own; what is
// left is the value string at each of the two decodes (the server's
// request, the client's event).
func TestWriteRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, network := range transports {
		t.Run(network, func(t *testing.T) { writeRoundTripAllocs(t, network) })
	}
}

func writeRoundTripAllocs(t *testing.T, network string) {
	_, addr := startServerOn(t, network, Options{})
	c := dialOn(t, network, addr, 3)
	key := store.DiskPath(3, "xvda", "nr_dirty")
	seen := make(chan struct{}, 1)
	if _, err := c.Watch(key, func(p, v string) { seen <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	values := [2]string{"4096", "8192"} // multi-byte: each decode allocates
	i := 0
	roundTrip := func() {
		i++
		if err := c.Write(key, values[i%2]); err != nil {
			t.Error(err)
		}
		<-seen
	}
	for j := 0; j < 64; j++ { // fill the pools and the intern tables
		roundTrip()
	}
	const budget = 4
	if n := testing.AllocsPerRun(500, roundTrip); n > budget {
		t.Errorf("one write round trip with one watcher allocates %.1f times, budget %d", n, budget)
	} else {
		t.Logf("%.1f allocations per write round trip (budget %d)", n, budget)
	}
}
