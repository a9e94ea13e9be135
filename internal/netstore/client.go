package netstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Client is a wire connection to an iorchestra-stored server, bound to
// one domain by the handshake. Its method set mirrors the store surface a
// domain sees in-process, and satisfies federation.View as it stands.
//
// A Client is safe for concurrent use. Requests may be issued from many
// goroutines; watch callbacks are delivered sequentially by a dedicated
// dispatcher goroutine, and may themselves issue Client operations.
//
// Retention: the strings one reply carries — a Read value, the names of
// a List, every Value and Names element of a Batch's results — are views
// of that reply's one buffer, which is never reused. They stay valid for
// as long as they are held; holding any one of them keeps that whole
// reply (at most MaxFrame bytes) from the collector, so a caller that
// files away one short field of a large reply should strings.Clone it;
// one batch's Names slices likewise share one array. Watch callback
// arguments and SyncSubtree pages are private copies.
type Client struct {
	c net.Conn
	// fr reads the inbound frames: the stream is read by exactly one
	// goroutine (handshake, then readLoop), so whatever the server sent
	// behind its hello reply is already buffered for the loop. paths is
	// readLoop's intern table for event paths.
	fr    frameReader
	paths pathTable

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

	watchMu   sync.Mutex
	nextWatch uint32
	watchFns  map[uint32]func(path, value string)

	// Inbound watch events wait here for the dispatcher goroutine. The
	// queue grows on demand, so readLoop never blocks on it — a callback
	// parked in an rpc can always get its reply — and, like the server's
	// outbound queue, it holds the net change per (watch, path): a newer
	// value replaces a queued one in place, so a stuck dispatcher costs
	// memory in proportion to the distinct keys changed, not to the
	// history. evIdx finds the queued one: per registered watch, path to
	// absolute queue index; an event for any other watch is dropped.
	evMu   sync.Mutex
	evCond sync.Cond
	evq    sim.FIFO[clientEvent]
	evIdx  map[uint32]map[string]int
	evDone bool // readLoop has exited; the dispatcher drains and stops

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

// requestTimeout bounds each request round trip (see Client.sweep). A
// variable only so a test can shorten it.
var requestTimeout = 30 * time.Second

// waiter is one in-flight request's rendezvous with readLoop. Waiters
// are pooled, so a round trip allocates no channel. Whoever removes a
// waiter from Client.pending — readLoop with the reply, fail or sweep
// without one — fills it in and signals it exactly once.
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
// what every write, remove, grant and ping is answered with. readFrames
// hands waiters this constant instead of a copy of those five bytes.
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
		fr:       frameReader{r: nc},
		pending:  map[uint32]*waiter{},
		watchFns: map[uint32]func(path, value string){},
		evIdx:    map[uint32]map[string]int{},
		paths:    pathTable{},
		closedCh: make(chan struct{}),
	}
	c.evCond.L = &c.evMu
	// Handshake is synchronous: one frame out, one frame back, before the
	// read loop owns the socket.
	e := &enc{}
	e.op(OpHandshake, 1)
	e.u32(Magic)
	e.u8(ProtocolVersion)
	e.u32(uint32(dom))
	e.str(token)
	if err := writeFrame(nc, e.b); err != nil {
		nc.Close()
		return nil, err
	}
	payload, err := c.fr.next()
	if err != nil {
		nc.Close()
		return nil, err
	}
	d := &dec{b: payload}
	if Op(d.u8()) != OpReply || d.u32() != 1 {
		nc.Close()
		return nil, fmt.Errorf("%w: unexpected handshake reply", ErrBadRequest)
	}
	st := Status(d.u8())
	msg := d.str()
	if rerr := errOf(st, msg); rerr != nil {
		nc.Close()
		return nil, rerr
	}
	accepted := d.u8()
	d.u64() // the store's version counter at handshake; no client path reads it
	if err := d.done(); err != nil {
		nc.Close()
		return nil, err
	}
	if accepted != ProtocolVersion {
		nc.Close()
		return nil, fmt.Errorf("%w: server answered protocol version %d (want %d)", ErrBadRequest, accepted, ProtocolVersion)
	}
	c.sweepEvery = requestTimeout / 4
	c.reqMu.Lock()
	c.sweeper = time.AfterFunc(c.sweepEvery, c.sweep)
	c.reqMu.Unlock()
	go c.readLoop()
	go c.dispatchLoop()
	return c, nil
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
	for id, w := range c.pending {
		if c.epoch-w.epoch > 4 {
			delete(c.pending, id)
			w.err = fmt.Errorf("%w after %v", ErrTimeout, 4*c.sweepEvery)
			w.ready <- struct{}{}
		}
	}
	c.sweeper.Reset(c.sweepEvery)
}

// readLoop owns the inbound stream until it fails, then fails the
// connection and lets the dispatcher drain what is queued and stop.
func (c *Client) readLoop() {
	c.fail(c.readFrames())
	c.evMu.Lock()
	c.evDone = true
	c.evCond.Broadcast()
	c.evMu.Unlock()
}

// readFrames routes replies to their waiters and events to the
// dispatcher's queue; it returns why the stream ended.
func (c *Client) readFrames() error {
	for {
		payload, err := c.fr.next()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrClosed, err)
		}
		d := dec{b: payload, paths: c.paths}
		op := Op(d.u8())
		id := d.u32()
		if d.err != nil {
			return fmt.Errorf("%w: truncated frame from server", ErrBadRequest)
		}
		switch op {
		case OpReply:
			c.reqMu.Lock()
			w := c.pending[id]
			delete(c.pending, id)
			c.reqMu.Unlock()
			if w != nil {
				// The waiter decodes on its own goroutine, after the next
				// read has reused rbuf: it gets the body as a string of its
				// own, the reply's one allocation (rdec).
				if string(d.b) == okBody {
					w.body = okBody
				} else {
					w.body = string(d.b)
				}
				w.ready <- struct{}{}
			}
		case OpEvent:
			// Decoded in place: dec copies the strings out before the next
			// read overwrites rbuf.
			watch := d.u32()
			path := d.path()
			value := d.str()
			if d.done() == nil {
				c.pushEvent(eventKey{watch: watch, path: path}, value)
			}
		default:
			return fmt.Errorf("%w: unexpected opcode %d from server", ErrBadRequest, uint8(op))
		}
	}
}

// pushEvent queues one watch event for the dispatcher without ever
// blocking: a value for a key still queued replaces it in place.
//
// hotpath
func (c *Client) pushEvent(key eventKey, value string) {
	c.evMu.Lock()
	if idx := c.evIdx[key.watch]; idx == nil {
		// Unwatched since the server sent it.
	} else if abs, queued := idx[key.path]; queued {
		c.evq.At(abs).value = value
	} else {
		idx[key.path] = c.evq.Push(clientEvent{key: key, value: value})
		c.evCond.Signal()
	}
	c.evMu.Unlock()
}

func (c *Client) dispatchLoop() {
	for {
		c.evMu.Lock()
		for c.evq.Len() == 0 && !c.evDone {
			c.evCond.Wait()
		}
		if c.evq.Len() == 0 {
			c.evMu.Unlock()
			return
		}
		ev, _ := c.evq.Pop()
		delete(c.evIdx[ev.key.watch], ev.key.path) // a no-op once unwatched
		c.evMu.Unlock()
		c.watchMu.Lock()
		fn := c.watchFns[ev.key.watch]
		c.watchMu.Unlock()
		if fn != nil {
			fn(ev.key.path, ev.value)
		}
	}
}

// call sends one request — r's opcode, a fresh request id, then the body
// r's row of the op table lays out (subs being a batch's sub-ops, nil
// otherwise) — waits for its reply and decodes the standard
// status+message prefix; the returned decoder is positioned at the
// op-specific body.
func (c *Client) call(r *req, subs []req) (rdec, error) {
	select {
	case <-c.closedCh:
		return rdec{}, c.Err()
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
		return rdec{}, c.Err()
	}
	<-w.ready
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
//
// hotpath
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
// client's dispatcher goroutine; events for the same path may be
// coalesced (latest value wins) if this client falls behind.
func (c *Client) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	c.watchMu.Lock()
	c.nextWatch++
	cwid := c.nextWatch
	// Install before sending: the first event may beat the reply.
	c.watchFns[cwid] = fn
	c.watchMu.Unlock()
	c.evMu.Lock()
	c.evIdx[cwid] = map[string]int{}
	c.evMu.Unlock()
	if err := c.callOK(&req{op: OpWatch, id: cwid, path: prefix}); err != nil {
		c.forget(cwid)
		return 0, err
	}
	return store.WatchID(cwid), nil
}

// forget drops a watch's callback and index; dispatch discards its queue.
func (c *Client) forget(cwid uint32) {
	c.watchMu.Lock()
	delete(c.watchFns, cwid)
	c.watchMu.Unlock()
	c.evMu.Lock()
	delete(c.evIdx, cwid)
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
