package netstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Client is a wire connection to an iorchestra-stored server, bound to
// one domain by the handshake. Its method set mirrors the store surface a
// domain sees in-process, and satisfies federation.View as it stands.
//
// A Client is safe for concurrent use. Requests may be issued from many
// goroutines. Each client has one goroutine of its own, its loop: it
// reads the inbound stream and runs the watch callbacks one at a time, on
// the goroutine that read their events. A callback may itself issue
// Client operations, and such a request reads its own reply: while the
// loop runs callbacks, a caller waiting for a reply reads the stream.
//
// Retention: the strings one reply carries — a Read value, the names of
// a List, every Value and Names element of a Batch's results — are views
// of that reply's one buffer, which is never reused. They stay valid for
// as long as they are held; holding any one of them keeps that whole
// reply (at most MaxFrame bytes) from the collector, so a caller that
// files away one short field of a large reply should strings.Clone it;
// one batch's Names slices likewise share one array. Watch callback
// arguments are private copies.
type Client struct {
	c net.Conn
	// The inbound stream is read by whoever holds the read token, which
	// tok holds while nobody reads: the loop, a caller waiting for its
	// reply (await), or the standby reader behind a slow callback. The
	// loop takes the token only when it is free and otherwise waits on
	// kick, so a token let go goes to a waiting caller or stays free for
	// the next one — never to a loop that would hand it straight back.
	// fr, paths (the intern table for event paths) and rerr are the
	// holder's. The handshake reads fr before the loop starts, so whatever
	// the server sent behind its hello reply is already buffered for it.
	tok   chan struct{}
	kick  chan struct{} // capacity 1: a holder other than the loop has let go
	fr    frameReader
	paths pathTable
	rerr  error // why the stream ended; once set, nobody reads again

	// reqMu orders request ids, pending registrations and socket writes.
	// wenc is the request encoder, reused under it: a frame is built
	// behind a four-byte length prefix and written in place. freeOps is
	// the last finished batch's op slice, kept for the next (batch.go).
	reqMu   sync.Mutex
	nextReq uint32
	pending map[uint32]*waiter
	wenc    enc
	freeOps []req
	// One sweep per client enforces the request timeout, so a request
	// arms no timer of its own: every sweepEvery (a quarter of
	// requestTimeout as it stood at dial) sweeper advances epoch and fails
	// the pending requests more than four epochs old with ErrTimeout —
	// between one and one and a quarter timeouts after they were sent.
	// Guarded by reqMu; fail stops it.
	epoch      uint32
	sweepEvery time.Duration
	sweeper    *time.Timer

	// Inbound watch events wait here for the loop to run their callbacks.
	// The queue grows on demand, so a reader never blocks on it — a
	// callback parked in an rpc can always get its reply — and, like the
	// server's outbound queue, it holds the net change per (watch, path):
	// a newer value replaces a queued one in place, so a stuck callback
	// costs memory in proportion to the distinct keys changed, not to the
	// history. watches holds each registered watch's callback and finds
	// its queued events; an event for any other watch is dropped.
	evMu      sync.Mutex
	evq       sim.FIFO[clientEvent]
	watches   map[uint32]*clientWatch
	nextWatch uint32

	// The standby reader keeps the stream moving behind a slow callback,
	// so the server's write to this client cannot stall into an eviction.
	// cb is bumped as each callback starts and as it returns: odd while
	// one runs, its value names that one. While callbacks run, standby
	// ticks every standbyEvery; a tick that finds the callback of the
	// previous tick (lastCB) still running, and the token free, reads
	// until that callback returns. The loop re-arms the timer only once a
	// tick has found no callback run (armed), so it is armed at most once
	// per tick and never per callback.
	cb      atomic.Uint64
	lastCB  atomic.Uint64
	armed   atomic.Bool
	standby *time.Timer

	closeOnce sync.Once
	closedCh  chan struct{}
	// err records why the connection died, for post-mortem reporting.
	errMu  sync.Mutex
	errVal error
}

type clientEvent struct {
	key   eventKey
	value string
}

// clientWatch is one registered watch: its callback, and per path its
// queued event's absolute index in Client.evq.
type clientWatch struct {
	fn  func(path, value string)
	idx map[string]int
}

// requestTimeout bounds each request round trip (see Client.sweep). A
// variable only so a test can shorten it.
var requestTimeout = 30 * time.Second

// standbyEvery is the standby reader's tick: a callback that runs
// longer than one to two of them has the stream read behind it.
const standbyEvery = time.Millisecond

// waiter is one in-flight request's rendezvous with whoever reads its
// reply. Waiters are pooled, so a round trip allocates no channel.
// Whoever removes a waiter from Client.pending — a reader with the
// reply, fail or sweep without one — fills it in and signals it exactly
// once; a caller that reads its own reply is not signalled (step).
type waiter struct {
	ready chan struct{} // capacity 1: the signal never blocks its sender
	body  string        // the reply after opcode and request id
	err   error         // non-nil: no reply; the connection died or the request timed out
	epoch uint32        // Client.epoch when the request was registered
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ready: make(chan struct{}, 1)}
}}

// okBody is the body of a bodiless OK reply (status 0, empty message) —
// what every write, remove, grant and ping is answered with. step hands
// waiters this constant instead of a copy of those five bytes.
const okBody = "\x00\x00\x00\x00\x00"

// Dial connects to an iorchestra-stored endpoint ("tcp" or "unix") and
// performs the handshake binding the connection to dom. token is
// required only when dom is Dom0 and the server enforces a token.
func Dial(network, addr string, dom store.DomID, token string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, dom, token)
}

// NewClient performs the handshake over an established connection.
func NewClient(nc net.Conn, dom store.DomID, token string) (*Client, error) {
	c := &Client{
		c:        nc,
		tok:      make(chan struct{}, 1),
		kick:     make(chan struct{}, 1),
		fr:       frameReader{r: nc},
		pending:  map[uint32]*waiter{},
		watches:  map[uint32]*clientWatch{},
		paths:    pathTable{},
		closedCh: make(chan struct{}),
	}
	// Handshake is synchronous: one frame out, one frame back, before the
	// loop reads the stream. On a Unix socket the hello offers a ring
	// (ring.go), which the server's reply may have accepted.
	e := &enc{}
	e.op(OpHandshake, 1)
	e.u32(Magic)
	e.u8(ProtocolVersion)
	e.u32(uint32(dom))
	e.str(token)
	region, err := sendHello(nc, e.b)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.helloReply(); err != nil {
		if region != nil {
			unmapRegion(region)
		}
		nc.Close()
		return nil, err
	}
	if region != nil {
		if c.c, err = takeRing(nc, region); err != nil {
			nc.Close()
			return nil, err
		}
		c.fr.r = c.c
	}
	c.sweepEvery = requestTimeout / 4
	c.reqMu.Lock()
	c.sweeper = time.AfterFunc(c.sweepEvery, c.sweep)
	c.reqMu.Unlock()
	c.standby = time.AfterFunc(standbyEvery, c.standbyTick)
	c.standby.Stop() // the first callback arms it
	c.tok <- struct{}{}
	go c.loop()
	return c, nil
}

// helloReply reads and checks the server's answer to the hello.
func (c *Client) helloReply() error {
	payload, err := c.fr.next()
	if err != nil {
		return err
	}
	d := &dec{b: payload}
	if Op(d.u8()) != OpReply || d.u32() != 1 {
		return fmt.Errorf("%w: unexpected handshake reply", ErrBadRequest)
	}
	st := Status(d.u8())
	msg := d.str()
	if rerr := errOf(st, msg); rerr != nil {
		return rerr
	}
	accepted := d.u8()
	d.u64() // the store's version counter at handshake; no client path reads it
	if err := d.done(); err != nil {
		return err
	}
	if accepted != ProtocolVersion {
		return fmt.Errorf("%w: server answered protocol version %d (want %d)", ErrBadRequest, accepted, ProtocolVersion)
	}
	return nil
}

// Close tears the connection down; in-flight requests fail with
// ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Err reports why the connection died (nil while healthy).
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	select {
	case <-c.closedCh:
		return c.errVal
	default:
		return nil
	}
}

// fail closes the connection once, recording the cause and waking every
// waiter.
func (c *Client) fail(err error) {
	c.closeOnce.Do(func() {
		c.errMu.Lock()
		c.errVal = err
		c.errMu.Unlock()
		close(c.closedCh)
		c.c.Close()
		c.reqMu.Lock()
		c.sweeper.Stop()
		for id, w := range c.pending {
			delete(c.pending, id)
			w.err = err
			w.ready <- struct{}{}
		}
		c.reqMu.Unlock()
	})
}

// sweep is the timeout tick (see Client.sweeper). It re-arms itself
// unless the connection has failed: fail closes closedCh before it takes
// reqMu to stop the timer, so a tick that got in first is stopped there
// and one that comes after sees the channel closed.
func (c *Client) sweep() {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	select {
	case <-c.closedCh:
		return
	default:
	}
	c.epoch++
	expired := false
	for id, w := range c.pending {
		if c.epoch-w.epoch > 4 {
			delete(c.pending, id)
			w.err = fmt.Errorf("%w after %v", ErrTimeout, 4*c.sweepEvery)
			w.ready <- struct{}{}
			expired = true
		}
	}
	if expired {
		// The timed-out caller may be the one reading, for a reply that
		// will not come: an expired read deadline ends its read. Whoever
		// is reading clears it and goes on (step).
		c.c.SetReadDeadline(longAgo)
	}
	c.sweeper.Reset(c.sweepEvery)
}

// loop is the client's goroutine. It runs the queued callbacks, in
// order, with the read token free, so callers read their own replies
// meanwhile; then it reads if the token is free, or waits for its holder
// to let go (kick). Once the stream has ended it runs what is queued and
// returns.
func (c *Client) loop() {
	for {
		c.dispatch()
		select {
		case <-c.tok:
			if !c.readUntilEvent() {
				c.dispatch()
				return
			}
		default:
			<-c.kick
		}
	}
}

// readUntilEvent is the loop's read, the token held: it reads until an
// event is queued and no whole frame is buffered behind it, then lets
// the token go. It reports whether the stream is still up.
func (c *Client) readUntilEvent() bool {
	c.evMu.Lock()
	queued := c.evq.Len() > 0
	c.evMu.Unlock()
	woke := false
	for c.rerr == nil && (!queued || c.fr.whole()) {
		switch c.step(nil) {
		case queuedEvent:
			queued = true
		case wokeWaiter:
			woke = true
		}
	}
	c.tok <- struct{}{}
	if woke {
		// The caller just handed its reply waits in this goroutine's
		// processor's next slot: let it run before the callbacks do.
		runtime.Gosched()
	}
	return c.rerr == nil
}

// release lets the read token go — to a caller waiting for it, or back
// to the loop — and kicks the loop so that it looks again. Every holder
// but the loop lets go through here.
func (c *Client) release() {
	c.tok <- struct{}{}
	select {
	case c.kick <- struct{}{}:
	default: // a kick is pending already
	}
}

// dispatch runs the queued callbacks until the queue is empty; the
// standby timer covers each one.
func (c *Client) dispatch() {
	for {
		c.evMu.Lock()
		ev, ok := c.evq.Pop()
		if !ok {
			c.evMu.Unlock()
			return
		}
		w := c.watches[ev.key.watch]
		if w != nil {
			delete(w.idx, ev.key.path)
		}
		c.evMu.Unlock()
		if w != nil { // else unwatched since it was queued
			// Bumped before armed is read, and standbyTick clears armed
			// before it reads cb: a tick that disarms has seen this
			// callback start, or this read sees it disarmed and arms it.
			c.cb.Add(1)
			if !c.armed.Load() && c.armed.CompareAndSwap(false, true) {
				c.standby.Reset(standbyEvery)
			}
			w.fn(ev.key.path, ev.value)
			c.cb.Add(1)
		}
	}
}

// standbyTick is the standby timer's tick (see Client.standby). It ticks
// again while callbacks run, and disarms after a tick with none run.
func (c *Client) standbyTick() {
	select {
	case <-c.closedCh:
		return
	default:
	}
	s := c.cb.Load()
	if last := c.lastCB.Swap(s); s == last && s&1 == 1 {
		select {
		case <-c.tok:
			for c.rerr == nil && c.cb.Load() == s {
				c.step(nil)
			}
			c.release()
		default: // someone is reading
		}
	} else if s == last {
		c.armed.Store(false)
		if c.cb.Load() == s || !c.armed.CompareAndSwap(false, true) {
			return
		}
	}
	c.standby.Reset(standbyEvery)
}

// stepped is what step did with a frame.
type stepped uint8

const (
	routedNone  stepped = iota // a deadline, an error, or a frame for nobody
	answeredOwn                // the reading caller's own reply
	wokeWaiter                 // another caller's reply, signalled
	queuedEvent                // an event, queued
)

// step reads one frame and routes it; the caller holds the read token.
// A reply goes to its waiter — to own, the reading caller's, without a
// signal — and an event to the queue. A deadline error is the sweep
// ending a timed-out caller's read: it is cleared and nothing is routed.
// Any other error ends the stream: it is kept in rerr and fails the
// connection.
func (c *Client) step(own *waiter) stepped {
	payload, err := c.fr.next()
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.c.SetReadDeadline(time.Time{})
			return routedNone
		}
		c.end(fmt.Errorf("%w: %v", ErrClosed, err))
		return routedNone
	}
	d := dec{b: payload, paths: c.paths}
	op := Op(d.u8())
	id := d.u32()
	if d.err != nil {
		c.end(fmt.Errorf("%w: truncated frame from server", ErrBadRequest))
		return routedNone
	}
	switch op {
	case OpReply:
		c.reqMu.Lock()
		w := c.pending[id]
		delete(c.pending, id)
		c.reqMu.Unlock()
		if w != nil {
			// The waiter decodes after the next read has reused the
			// reader's buffer: it gets the body as a string of its own, the
			// reply's one allocation (rdec).
			if string(d.b) == okBody {
				w.body = okBody
			} else {
				w.body = string(d.b)
			}
			if w == own {
				return answeredOwn
			}
			w.ready <- struct{}{}
			return wokeWaiter
		}
	case OpEvent:
		// Decoded in place: dec copies the strings out before the next
		// read overwrites the buffer.
		watch := d.u32()
		path := d.path()
		value := d.str()
		if d.done() == nil && c.pushEvent(eventKey{watch: watch, path: path}, value) {
			return queuedEvent
		}
	default:
		c.end(fmt.Errorf("%w: unexpected opcode %d from server", ErrBadRequest, uint8(op)))
	}
	return routedNone
}

// end records why the stream ended and fails the connection, which
// answers every pending request; the token is held.
func (c *Client) end(err error) {
	c.rerr = err
	c.fail(err)
}

// pushEvent queues one watch event for the loop without ever blocking: a
// value for a key still queued replaces it in place. It reports whether
// the event is queued; one for a watch since removed is dropped.
func (c *Client) pushEvent(key eventKey, value string) bool {
	c.evMu.Lock()
	defer c.evMu.Unlock()
	w := c.watches[key.watch]
	if w == nil {
		return false
	}
	if abs, queued := w.idx[key.path]; queued {
		c.evq.At(abs).value = value
	} else {
		w.idx[key.path] = c.evq.Push(clientEvent{key: key, value: value})
	}
	return true
}

// await returns once w is answered. While someone else reads, it waits
// for them to route the reply; when the token comes free first, the
// caller reads the stream itself until its own reply is among what it
// read.
func (c *Client) await(w *waiter) {
	select {
	case <-c.tok: // nobody reads: a callback's request, as a rule
	default:
		select {
		case <-w.ready:
			return
		case <-c.tok:
		}
	}
	for {
		// Check before each read: the token's last holder, the sweep or
		// fail may have answered w already, and a read after the reply
		// would wait for a frame that may never come.
		select {
		case <-w.ready:
			c.release()
			return
		default:
		}
		if c.rerr != nil {
			c.release()
			<-w.ready // the ended stream failed the connection, which answers w
			return
		}
		if c.step(w) == answeredOwn {
			c.release()
			return
		}
	}
}

// call sends one request — r's opcode, a fresh request id, then the body
// r's row of the op table lays out (subs being a batch's sub-ops, nil
// otherwise) — waits for its reply and decodes the standard
// status+message prefix; the returned decoder is positioned at the
// op-specific body.
func (c *Client) call(r *req, subs []req) (rdec, error) {
	w, err := c.send(r, subs)
	if err != nil {
		return rdec{}, err
	}
	c.await(w)
	if w.err != nil {
		return rdec{}, w.err
	}
	d := rdec{s: w.body}
	w.body = ""
	waiterPool.Put(w)
	st := Status(d.u8())
	msg := d.str()
	if err := errOf(st, msg); err != nil {
		return rdec{}, err
	}
	return d, nil
}

// send registers a waiter under a fresh request id and writes the
// request; the reply is await's to wait for.
func (c *Client) send(r *req, subs []req) (*waiter, error) {
	select {
	case <-c.closedCh:
		return nil, c.Err()
	default:
	}
	w := waiterPool.Get().(*waiter)
	// Frames must hit the socket in pending-registration order, so the
	// write stays under reqMu; net.Conn writes are safe but interleaving
	// is on us.
	c.reqMu.Lock()
	c.nextReq++
	id := c.nextReq
	w.epoch = c.epoch
	c.pending[id] = w
	err := c.sendLocked(r, subs, id)
	c.reqMu.Unlock()
	if err != nil {
		// w stays out of the pool on the failure paths: fail may or may
		// not have signalled it, and a pooled waiter must be quiet.
		c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		return nil, c.Err()
	}
	return w, nil
}

// callOK is call for a request whose OK reply has no body.
func (c *Client) callOK(r *req) error {
	d, err := c.call(r, nil)
	if err != nil {
		return err
	}
	return d.done()
}

// callStr is call for a request whose OK reply is one string.
func (c *Client) callStr(r *req) (string, error) {
	d, err := c.call(r, nil)
	if err != nil {
		return "", err
	}
	v := d.str()
	return v, d.done()
}

// sendLocked encodes one request into the client's own buffer, length
// prefix included, and writes it with a single Write. reqMu is held.
func (c *Client) sendLocked(r *req, subs []req, id uint32) error {
	e := &c.wenc
	e.b = append(e.b[:0], 0, 0, 0, 0)
	e.op(r.op, id).req(r, subs)
	n := len(e.b) - 4
	if n > MaxFrame {
		e.b = nil
		return errFrameSize(n)
	}
	binary.BigEndian.PutUint32(e.b, uint32(n))
	_, err := c.c.Write(e.b)
	if cap(e.b) > poolMax {
		e.b = nil // one big request must not pin its size
	}
	return err
}

// --- Store surface ----------------------------------------------------------

// Read returns the value at an absolute path.
func (c *Client) Read(path string) (string, error) {
	return c.callStr(&req{op: OpRead, path: path})
}

// Write sets the value at an absolute path.
func (c *Client) Write(path, value string) error {
	return c.callOK(&req{op: OpWrite, path: path, value: value})
}

// Remove deletes the node (and subtree) at an absolute path.
func (c *Client) Remove(path string) error { return c.callOK(&req{op: OpRemove, path: path}) }

// List returns the sorted child names under an absolute path.
func (c *Client) List(path string) ([]string, error) {
	d, err := c.call(&req{op: OpList, path: path}, nil)
	if err != nil {
		return nil, err
	}
	names := d.names()
	return names, d.done()
}

// Grant gives target a permission on an absolute path.
func (c *Client) Grant(path string, target store.DomID, perm store.Perm) error {
	return c.callOK(&req{op: OpGrant, path: path, target: target, perm: perm})
}

// Ping round-trips an empty request (liveness / latency probe).
func (c *Client) Ping() error { return c.callOK(&req{op: OpPing}) }

// Stats fetches the server's wire+store counters.
func (c *Client) Stats() (Counters, error) {
	var ctr Counters
	blob, err := c.callStr(&req{op: OpStats})
	if err != nil {
		return ctr, err
	}
	return ctr, json.Unmarshal([]byte(blob), &ctr)
}

// Watch registers fn on an absolute prefix. The callback runs on the
// client's loop, the goroutine that read its event, one callback at a
// time; an RPC it issues reads its own reply. Events for the same path
// may be coalesced (latest value wins) while callbacks fall behind, and
// the stream is read behind a callback that runs for more than a couple
// of milliseconds, so a slow one never stalls the server's writes.
func (c *Client) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	c.evMu.Lock()
	c.nextWatch++
	cwid := c.nextWatch
	// Install before sending: the first event may beat the reply.
	c.watches[cwid] = &clientWatch{fn: fn, idx: map[string]int{}}
	c.evMu.Unlock()
	if err := c.callOK(&req{op: OpWatch, id: cwid, path: prefix}); err != nil {
		c.forget(cwid)
		return 0, err
	}
	return store.WatchID(cwid), nil
}

// forget drops a watch's callback and index; dispatch discards its queue.
func (c *Client) forget(cwid uint32) {
	c.evMu.Lock()
	delete(c.watches, cwid)
	c.evMu.Unlock()
}

// Unwatch removes a watch registered through this client.
func (c *Client) Unwatch(id store.WatchID) {
	c.forget(uint32(id))
	_ = c.callOK(&req{op: OpUnwatch, id: uint32(id)}) // idempotent on the server; a dead connection has no watches
}

// --- Transactions -----------------------------------------------------------

// Txn is a wire-backed optimistic transaction, mirroring store.Txn:
// reads are tracked and writes buffered server-side; Commit fails with
// store.ErrConflict if anything read changed underneath it.
type Txn struct {
	c   *Client
	tid uint32
}

// Begin opens a transaction on the server.
func (c *Client) Begin() (*Txn, error) {
	d, err := c.call(&req{op: OpTxnBegin}, nil)
	if err != nil {
		return nil, err
	}
	tid := d.u32()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &Txn{c: c, tid: tid}, nil
}

// Read reads within the transaction.
func (t *Txn) Read(path string) (string, error) {
	return t.c.callStr(&req{op: OpTxnRead, id: t.tid, path: path})
}

// Write buffers a write within the transaction.
func (t *Txn) Write(path, value string) error {
	return t.c.callOK(&req{op: OpTxnWrite, id: t.tid, path: path, value: value})
}

// Commit validates and applies the transaction atomically.
func (t *Txn) Commit() error { return t.c.callOK(&req{op: OpTxnCommit, id: t.tid}) }

// Abort discards the transaction.
func (t *Txn) Abort() error { return t.c.callOK(&req{op: OpTxnAbort, id: t.tid}) }
