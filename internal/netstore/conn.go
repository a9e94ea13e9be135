package netstore

// A connection's socket half: its state, the reader and writer
// goroutines, the handshake and the write deadline. The outbound queue
// between the two is queue.go; what a decoded frame does is ops.go.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

type srvConn struct {
	srv *Server
	c   net.Conn
	id  uint64

	// dom is bound by the handshake, read-only afterwards.
	dom       store.DomID
	handshook bool

	// Outbound queue: the reader pushes replies and whichever goroutine
	// holds the store lock pushes events, each indexed by its watch
	// (srvWatch.idx). On a socket the writer goroutine pops from the
	// front; on a ring the pusher writes the queue itself (flushLocked)
	// and the writer runs only when the ring lacks room.
	qmu     sync.Mutex
	qcond   *sync.Cond
	q       sim.FIFO[outFrame]
	nEvents int
	qclosed bool
	// ring is c.c once the connection is on a shared-memory ring, nil on
	// a socket. wbusy says the writer holds frames it has popped and not
	// yet written, which no flush may overtake; fbuf is the flushes'
	// encode buffer. All three under qmu. flushing says the connection
	// is on the store lock holder's tree.flushq: store-lock state.
	ring     *ringConn
	wbusy    bool
	fbuf     []byte
	flushing bool
	// lagged lists, oldest first, the keys whose events found the queue
	// full: the value is dropped and the key remembered, and repair
	// re-reads the path's then-current value once the writer has made
	// room — overflow costs a live watcher latency, never the final
	// value. While it is non-empty every new key queues behind it, which
	// keeps first-enqueue delivery order. lagIdx dedups it.
	lagged []eventKey
	lagIdx map[eventKey]struct{}

	closeOnce sync.Once
	// dead flips when the connection is torn down (evicted or closed); it
	// makes eviction accounting idempotent — an evict and the write error
	// it provokes in writeLoop must count once.
	dead atomic.Bool

	// watches (by client watch id) is store-lock state: only closures
	// passed to do touch it. txns belongs to the reader goroutine, inside
	// and outside the closures it runs.
	watches map[uint32]srvWatch
	txns    map[uint32]*store.Txn
	nextTxn uint32

	// fr reads the inbound frames, hello included (each request is fully
	// decoded — dec copies string bytes out — before the next read); paths
	// interns the request paths. req is the request being served and renc
	// the reply being built — fields, so serve finds them on the connection
	// and neither a closure nor an encoder lives on the heap per frame.
	// renc's buffer is a fresh pooled one per reply; subs is a batch's
	// decoded sub-ops, scratch cleared (like req) after each frame.
	fr    frameReader
	paths pathTable
	req   req
	subs  []req
	renc  enc
}

func (s *Server) startConn(c net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.nextConn++
	ring, _ := c.(*ringConn) // handed over on a ring already: one from the start
	sc := &srvConn{
		srv:     s,
		c:       c,
		ring:    ring,
		fr:      frameReader{r: c},
		id:      s.nextConn,
		watches: map[uint32]srvWatch{},
		txns:    map[uint32]*store.Txn{},
		// Built here, not lazily in enqueueEvent: that runs on every
		// event, and a per-call nil check plus literal would allocate.
		lagIdx: map[eventKey]struct{}{},
		paths:  pathTable{},
	}
	sc.qcond = sync.NewCond(&sc.qmu)
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.accepted.Add(1)
	s.wg.Add(2)
	go sc.readLoop()
	go sc.writeLoop()
}

// shutdown tears the connection down; safe from any goroutine, any number
// of times.
func (c *srvConn) shutdown() {
	c.closeOnce.Do(func() {
		c.dead.Store(true)
		c.qmu.Lock()
		c.qclosed = true
		c.qcond.Broadcast()
		conn := c.c
		c.qmu.Unlock()
		conn.Close()
	})
}

// writeLoop writes what the queue holds each time it is woken: on a
// socket for every frame, on a ring only when a flush found no room
// (flushLocked). Frames queued while the previous write was on the wire
// are drained together and written at once — under load a burst of
// replies and watch events costs one write, not one per frame.
func (c *srvConn) writeLoop() {
	defer c.srv.wg.Done()
	// The run is encoded into wbuf, which the loop keeps across writes;
	// the byte budget bounds what one write grows it to.
	const coalesceBudget = 48 << 10
	var (
		wbuf []byte
		// armed is the write deadline standing on the socket. Arming costs
		// more than a small frame's encode, so it is set two WriteTimeouts
		// out and re-armed only once less than one remains: a write still
		// cannot stall past the deadline, and a peer is cut after at least
		// WriteTimeout and at most twice that.
		armed time.Time
		// writes is the loop's share of Counters.WriterFlushes, added as it
		// exits: the write path touches no shared counter.
		writes uint64
	)
	defer func() { c.srv.writerFlushes.Add(writes) }()
	for {
		c.qmu.Lock()
		c.wbusy = false
		for c.q.Len() == 0 && !c.qclosed {
			c.qcond.Wait()
		}
		if c.qclosed {
			c.qmu.Unlock()
			return
		}
		var n int
		wbuf, n = c.encodeRun(wbuf[:0], coalesceBudget)
		c.dropRun(n)
		// lagged is non-empty only while the queue is too (it fills from a
		// full queue, repair refills the queue from it, and a flush that
		// empties the queue repairs at once), so a writer that checks on
		// every write cannot sleep on a backlog.
		lagging := len(c.lagged) > 0
		c.wbusy = true
		c.qmu.Unlock()
		if wt, now := c.srv.opts.WriteTimeout, time.Now(); armed.Sub(now) < wt {
			armed = now.Add(2 * wt)
			c.c.SetWriteDeadline(armed)
		}
		_, err := c.c.Write(wbuf)
		writes++
		if cap(wbuf) > poolMax {
			wbuf = nil // one big reply must not pin its size
		}
		if err != nil {
			c.writeStalled(err)
			return
		}
		if lagging && !c.srv.do(c.repair) {
			return
		}
	}
}

// writeStalled evicts the connection after a failed socket write — the
// write-stall evidence. Split from writeLoop so the hot path carries no
// closure.
func (c *srvConn) writeStalled(err error) {
	reason := "write stall: " + err.Error()
	if !c.srv.do(func(t *tree) { c.evict(t, reason) }) {
		c.shutdown()
	}
}

func (c *srvConn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		c.shutdown()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		// Tear down store-side state (watches, open transactions) and close
		// out the connection's trace lifecycle.
		c.srv.do(func(t *tree) {
			for _, w := range c.watches {
				t.st.Unwatch(w.id)
			}
			clear(c.watches)
			for _, txn := range c.txns {
				txn.Abort()
			}
			if c.handshook {
				t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "close"})
			}
		})
		c.txns = map[uint32]*store.Txn{}
	}()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		payload, err := c.fr.next()
		if err != nil {
			return
		}
		d := &dec{b: payload, paths: c.paths}
		op := Op(d.u8())
		id := d.u32()
		if d.err != nil {
			return // unframeable garbage: drop the connection
		}
		c.handle(op, id, d)
	}
}

// replyTo starts the reply to request id in a pooled buffer (recycled
// once the reply is written, dropRun): opcode, id, then err's status and
// message. After an OK prefix the caller appends the op-specific body.
func replyTo(id uint32, err error) enc {
	e := enc{b: getBuf(64)}
	e.op(OpReply, id)
	e.status(err)
	return e
}

// handshake reads and answers the binding frame. There is one protocol
// version and no negotiation: a hello carrying any other version byte is
// refused. Its replies go straight to the socket, not through the
// outbound queue: nothing else can be queued yet (requests and watches
// require a completed handshake), and a rejection must reach the peer
// before the connection closes. A Unix peer's hello may offer a ring
// (ring.go); one that is taken carries the rest of the connection.
func (c *srvConn) handshake() error {
	o := newOffer(c.c)
	if o != nil {
		c.fr.r = o
		defer o.close()
	}
	payload, err := c.fr.next()
	if err != nil {
		return err
	}
	c.fr.r = c.c
	d := &dec{b: payload}
	op := Op(d.u8())
	id := d.u32()
	magic := d.u32()
	ver := d.u8()
	dom := store.DomID(d.u32())
	token := d.str()
	send := func(e enc) error {
		c.c.SetWriteDeadline(time.Now().Add(c.srv.opts.WriteTimeout))
		err := writeFrame(c.c, e.b)
		putBuf(e.b)
		return err
	}
	refuse := func(cause error) error {
		send(replyTo(id, cause)) // best effort: the connection closes either way
		return cause
	}
	if err := d.done(); err != nil || op != OpHandshake || magic != Magic {
		return refuse(fmt.Errorf("%w: malformed handshake", ErrBadRequest))
	}
	if ver != ProtocolVersion {
		return refuse(fmt.Errorf("%w: protocol version %d (want %d)", ErrBadRequest, ver, ProtocolVersion))
	}
	if dom == store.Dom0 && c.srv.opts.Dom0Token != "" && token != c.srv.opts.Dom0Token {
		return refuse(fmt.Errorf("%w: dom0 token rejected", ErrAuth))
	}
	c.dom = dom
	c.handshook = true
	var version uint64
	if !c.srv.do(func(t *tree) {
		t.st.AddDomain(dom)
		version = t.st.Version()
		t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(dom), Value: "connect"})
	}) {
		return ErrClosed
	}
	// A peer that sent more than its hello is not waiting for the reply
	// to switch, so it stays on the socket.
	ring := o != nil && c.fr.head == c.fr.tail && o.accept()
	e := replyTo(id, nil)
	e.u8(ProtocolVersion)
	e.u64(version)
	if err := send(e); err != nil {
		return err
	}
	c.c.SetWriteDeadline(time.Time{})
	if !ring {
		return nil
	}
	rc, err := o.ring(&c.srv.doorbells)
	if err != nil {
		return err // the peer was told it is on a ring: it cannot stay
	}
	// shutdown closes whatever c.c is under qmu, so the swap is made there,
	// and with it the switch to writing frames where they are queued.
	c.qmu.Lock()
	closed := c.qclosed
	if !closed {
		c.c, c.ring = rc, rc
	}
	c.qmu.Unlock()
	if closed {
		rc.Close()
		return ErrClosed
	}
	c.fr.r = rc
	c.srv.ringConns.Add(1)
	return nil
}
