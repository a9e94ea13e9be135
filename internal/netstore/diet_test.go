package netstore

// Tests that pin the watched-write diet (docs/PERFORMANCE.md §1 "A
// watched write is encoded once") and the invariants it leans on: events
// are queued undecoded and encoded once, replies are decoded as views of
// one private buffer, and a request's timeout costs it no timer.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// TestBatchRoundTripAllocs is the allocation budget of the benchmark's
// hot frame: 96 ops, 6 writes : 1 read : 1 list over 32 keys of 256
// bytes, the client watching its own writes. What is left per op is the
// written value's string on the server, a share of the reply's one
// buffer, of the result slice and of the frame's one names array, and
// the value of each event that survives coalescing — counted, and
// weighed: the bytes are what paces the collector.
func TestBatchRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	var keys, pool []string
	for i := 0; i < 32; i++ {
		keys = append(keys, fmt.Sprintf("%s/k%d", base, i))
		if err := c.Write(keys[i], "0"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		pool = append(pool, strings.Repeat(string(rune('a'+i%26)), 256))
	}
	var events atomic.Uint64
	if _, err := c.Watch(base, func(string, string) { events.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const ops = 96
	n := 0
	frame := func() {
		b := c.NewBatch()
		for j := 0; j < ops; j++ {
			switch k := keys[n%len(keys)]; n % 8 {
			case 6:
				b.Read(k)
			case 7:
				b.List(base)
			default:
				b.Write(k, pool[n%len(pool)])
			}
			n++
		}
		res, err := b.Run()
		if err != nil || len(res) != ops {
			t.Fatalf("batch: %d results, %v", len(res), err)
		}
	}
	for i := 0; i < 32; i++ { // fill the pools, the intern tables and the queues
		frame()
	}
	const budget, byteBudget = 1.25, 520
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	perOp := testing.AllocsPerRun(200, frame) / ops
	runtime.ReadMemStats(&m1)
	bytesPerOp := float64(m1.TotalAlloc-m0.TotalAlloc) / (201 * ops) // AllocsPerRun warms up with one run more
	if perOp > budget || bytesPerOp > byteBudget {
		t.Errorf("a 96-op batch round trip allocates %.2f times and %.0f bytes per op, budget %.2f and %d", perOp, bytesPerOp, budget, byteBudget)
	} else {
		t.Logf("%.2f allocations, %.0f bytes per batched op (budget %.2f, %d)", perOp, bytesPerOp, budget, byteBudget)
	}
	if events.Load() == 0 {
		t.Error("the client's own watch never fired")
	}
}

// TestReplyStringsOutliveLaterReplies pins the ownership rule behind
// zero-copy reply decoding: the strings of a reply are views of a buffer
// that belongs to that reply alone. A Read value, a List slice and a
// Batch result are kept across 1000 further replies of other sizes for
// other keys and must still equal the copies taken at receipt — which is
// what fails the day someone pools reply buffers.
func TestReplyStringsOutliveLaterReplies(t *testing.T) {
	_, sock := startServer(t, Options{})
	c := dialT(t, sock, 3)
	base := store.DomainPath(3)
	for i := 0; i < 8; i++ {
		if err := c.Write(fmt.Sprintf("%s/keep/name-%d", base, i), strings.Repeat(fmt.Sprint(i), 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	val, err := c.Read(base + "/keep/name-3")
	if err != nil {
		t.Fatal(err)
	}
	names, err := c.List(base + "/keep")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.NewBatch().Read(base + "/keep/name-5").List(base + "/keep").Run()
	if err != nil {
		t.Fatal(err)
	}
	cloneAll := func(ss []string) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = strings.Clone(s)
		}
		return out
	}
	wantVal, wantNames := strings.Clone(val), cloneAll(names)
	wantBatchVal, wantBatchNames := strings.Clone(res[0].Value), cloneAll(res[1].Names)

	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%s/churn/k%d", base, i%17)
		if err := c.Write(key, strings.Repeat("x", 1+i%300)); err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			_, err = c.Read(key)
		case 1:
			_, err = c.List(base + "/churn")
		default:
			_, err = c.NewBatch().Read(key).List(base + "/churn").Run()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if val != wantVal {
		t.Errorf("kept Read value changed: %q, was %q", val, wantVal)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("kept List names changed: %q, were %q", names, wantNames)
	}
	if res[0].Value != wantBatchVal || !reflect.DeepEqual(res[1].Names, wantBatchNames) {
		t.Errorf("kept Batch results changed: %q %q, were %q %q", res[0].Value, res[1].Names, wantBatchVal, wantBatchNames)
	}
}

// TestEventsCoalesceBeforeEncode holds a connection's writer on a peer
// that does not read, then changes 4 keys 25 times each: the queue must
// hold 4 events, not 100 frames, and once the peer reads, those 4 frames
// carry each key's final value in first-change order. Nothing about the
// 96 replaced values was ever encoded — the queue held the store's own
// strings.
func TestEventsCoalesceBeforeEncode(t *testing.T) {
	srv, sock := startServer(t, Options{WriteTimeout: time.Minute})
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)
	stalled := dialStalled(t, sock, 3, base)

	// Wedge the writer: more event bytes than any socket buffer takes.
	// The first filler alone exceeds the flush budget, so the flush that
	// blocks carries fillers only and everything after them stays queued.
	const fillers = 8
	for i := 0; i < fillers; i++ {
		if err := writer.Write(fmt.Sprintf("%s/filler/%d", base, i), strings.Repeat("f", MaxValue)); err != nil {
			t.Fatal(err)
		}
	}
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
	if got := after.Coalesced - before.Coalesced; got != 96 {
		t.Errorf("100 writes to 4 keys coalesced %d events, want 96", got)
	}
	if got := after.Events - before.Events; got != 4 {
		t.Errorf("100 writes to 4 keys queued %d events, want 4", got)
	}

	// Release the writer and read the stream: the fillers, then the four.
	br := bufio.NewReader(stalled)
	stalled.SetReadDeadline(time.Now().Add(30 * time.Second))
	for i := 0; i < fillers+4; i++ {
		payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		d := &dec{b: payload}
		op, id, watch, path, value := Op(d.u8()), d.u32(), d.u32(), d.str(), d.str()
		if err := d.done(); err != nil || op != OpEvent || id != 0 || watch != 1 {
			t.Fatalf("frame %d: op %v id %d watch %d, %v", i, op, id, watch, err)
		}
		if i < fillers {
			continue
		}
		if want := order[i-fillers]; path != want || value != final[want] {
			t.Errorf("event %d = %s=%s, want %s=%s", i-fillers, path, value, want, final[want])
		}
	}
	if n := srv.Counters().Evicted; n != 0 {
		t.Errorf("evicted %d connections", n)
	}
}

// playServer accepts one connection on a fresh socket, answers its hello
// and hands it to script: a server that misbehaves from there on.
func playServer(t *testing.T, script func(nc net.Conn, br *bufio.Reader)) (sock string) {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "play.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		if _, err := readFrame(br); err != nil { // the hello
			return
		}
		hs := replyTo(1, nil)
		hs.u8(ProtocolVersion)
		hs.u64(0)
		writeFrame(nc, hs.b)
		script(nc, br)
	}()
	return l.Addr().String()
}

// TestRequestTimeoutSweep plays a server that sits on a request: the
// client's sweep fails it with ErrTimeout after at least the timeout and
// at most a quarter more, the late reply is then ignored, and the
// connection carries on serving requests.
func TestRequestTimeoutSweep(t *testing.T) {
	old := requestTimeout
	requestTimeout = 400 * time.Millisecond
	t.Cleanup(func() { requestTimeout = old })

	release := make(chan struct{})
	sock := playServer(t, func(nc net.Conn, br *bufio.Reader) {
		answer := func(req []byte) { // a bodiless OK for the request's id
			d := &dec{b: req}
			d.u8()
			writeFrame(nc, replyTo(d.u32(), nil).b)
		}
		sat, err := readFrame(br)
		if err != nil {
			return
		}
		<-release
		answer(sat) // long after the client gave up on it
		for {
			req, err := readFrame(br)
			if err != nil {
				return
			}
			answer(req)
		}
	})

	c, err := Dial("unix", sock, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := time.Now()
	err = c.Ping()
	took := time.Since(t0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered request returned %v after %v, want ErrTimeout", err, took)
	}
	// The sweep's window is [1, 1.25] timeouts; the slack above it is for
	// a loaded box's timers, not for the mechanism.
	if lo, hi := requestTimeout, requestTimeout*5/4+500*time.Millisecond; took < lo || took > hi {
		t.Errorf("timed out after %v, want between %v and %v", took, lo, hi)
	}
	if c.Err() != nil {
		t.Fatalf("a timed-out request killed the connection: %v", c.Err())
	}
	c.reqMu.Lock()
	left := len(c.pending)
	c.reqMu.Unlock()
	if left != 0 {
		t.Errorf("%d requests still pending after the timeout", left)
	}
	close(release)
	// The late reply finds no waiter (the timed-out one was dropped, not
	// pooled, so nothing else can be woken by it); these get their own.
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("request %d after the timeout: %v", i, err)
		}
	}
}

// TestWatchMalformedReplyLeavesNoCallback plays a server that answers a
// watch request with an OK and a stray byte: Watch must fail and take
// its callback back out of the table, as it does when the call itself
// fails — the caller holds no id to Unwatch it by.
func TestWatchMalformedReplyLeavesNoCallback(t *testing.T) {
	sock := playServer(t, func(nc net.Conn, br *bufio.Reader) {
		req, err := readFrame(br)
		if err != nil {
			return
		}
		d := &dec{b: req}
		d.u8()
		reply := replyTo(d.u32(), nil)
		writeFrame(nc, reply.u8(0xEE).b)
		readFrame(br) // hold the connection until the client hangs up
	})

	c, err := Dial("unix", sock, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Watch(store.DomainPath(3), func(string, string) {}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Watch with a stray byte in its reply returned %v, want ErrBadRequest", err)
	}
	c.watchMu.Lock()
	left := len(c.watchFns)
	c.watchMu.Unlock()
	if left != 0 {
		t.Errorf("%d callbacks still installed after the failed Watch", left)
	}
}
