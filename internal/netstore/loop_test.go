package netstore

// Tests for the execution model: an operation runs to completion on the
// goroutine that decoded it, under the server's store lock
// (docs/WIRE_PROTOCOL.md §3.2). CI runs them at GOMAXPROCS 1, 2 and the
// default, plain and under the race detector.

import (
	"fmt"
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

	// Every event was queued before its write's reply, but a dispatcher
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

// TestCallbackRPCUnderEventBurst parks the dispatcher in a callback and,
// from inside it, puts 5000 events and then an rpc reply on the client's
// own stream. The reader must get past the events to the reply without
// waiting for the dispatcher, which is waiting for the reply. (With a
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
		t.Fatal("rpc from the callback never returned: reader blocked behind the dispatcher")
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("dispatcher delivered %d of %d queued events", got.Load(), burst)
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
