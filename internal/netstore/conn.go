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

	// Outbound queue: the writer goroutine pops from the front; the
	// reader pushes replies and whichever goroutine holds the store lock
	// pushes events, each indexed by its watch (srvWatch.idx).
	qmu     sync.Mutex
	qcond   *sync.Cond
	q       sim.FIFO[outFrame]
	nEvents int
	qclosed bool
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
	sc := &srvConn{
		srv:     s,
		c:       c,
		fr:      frameReader{r: c},
		id:      s.nextConn,
		watches: map[uint32]srvWatch{},
		txns:    map[uint32]*store.Txn{},
		// Built here, not lazily in enqueueEvent: that is the event hot
		// path and a per-call nil check plus literal is an allocation the
		// hotpathalloc pass would rightly flag.
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
		c.qmu.Unlock()
		c.c.Close()
	})
}

// hotpath
func (c *srvConn) writeLoop() {
	defer c.srv.wg.Done()
	// Frames queued while the previous write was on the wire are drained
	// together and written with a single syscall — under load a burst of
	// replies and watch events costs one write, not one per frame. They
	// are encoded into wbuf, which the loop keeps across flushes; the byte
	// budget bounds what one flush grows it to.
	const coalesceBudget = 48 << 10
	var (
		frames []outFrame
		wbuf   []byte
		// armed is the write deadline standing on the socket. Arming costs
		// more than a small frame's encode, so it is set two WriteTimeouts
		// out and re-armed only once less than one remains: a write still
		// cannot stall past the deadline, and a peer is cut after at least
		// WriteTimeout and at most twice that.
		armed time.Time
	)
	for {
		c.qmu.Lock()
		for c.q.Len() == 0 && !c.qclosed {
			c.qcond.Wait()
		}
		if c.qclosed {
			c.qmu.Unlock()
			return
		}
		frames = frames[:0]
		total := 0
		for c.q.Len() > 0 && total < coalesceBudget {
			fr, _ := c.q.Pop()
			if fr.idx != nil {
				// A watch has at most one frame queued per path (a second
				// event coalesces into it), so the entry is this frame's.
				c.nEvents--
				delete(fr.idx, fr.key.path)
			}
			frames = append(frames, fr)
			total += len(fr.payload) + len(fr.key.path) + len(fr.value)
		}
		// lagged is non-empty only while the queue is too (it fills from a
		// full queue and repair refills the queue from it), so a writer
		// that checks on every pop cannot sleep on a backlog.
		lagging := len(c.lagged) > 0
		c.qmu.Unlock()
		wbuf = wbuf[:0]
		for i := range frames {
			wbuf = frames[i].appendTo(wbuf)
			frames[i] = outFrame{}
		}
		if wt, now := c.srv.opts.WriteTimeout, time.Now(); armed.Sub(now) < wt {
			armed = now.Add(2 * wt)
			c.c.SetWriteDeadline(armed)
		}
		_, err := c.c.Write(wbuf)
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

// replyTo starts the reply to request id in a pooled buffer (writeLoop
// recycles it after the socket write): opcode, id, then err's status and
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
// before the connection closes.
func (c *srvConn) handshake() error {
	payload, err := c.fr.next()
	if err != nil {
		return err
	}
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
	e := replyTo(id, nil)
	e.u8(ProtocolVersion)
	e.u64(version)
	if err := send(e); err != nil {
		return err
	}
	c.c.SetWriteDeadline(time.Time{})
	return nil
}
