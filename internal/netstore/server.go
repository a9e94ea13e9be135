package netstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/fault"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Options configures a Server. The zero value is usable.
type Options struct {
	// NotifyQueue bounds the number of *watch events* queued per
	// connection (replies are demand-bounded and do not count). When the
	// queue is full, a newer event for the same (watch, path) replaces the
	// queued one (coalescing, latest value wins — XenStore semantics); an
	// event that cannot coalesce is remembered by key only and re-read
	// from the store once the writer has drained room (see srvConn.lagged;
	// that key backlog is bounded at lagFactor × NotifyQueue). Default
	// 1024.
	NotifyQueue int
	// WriteTimeout evicts a connection whose socket cannot absorb one
	// frame within the window — the only evidence of a stalled peer the
	// server acts on. The writer arms the socket deadline two windows out
	// and re-arms it once less than one remains, so a stalled write is cut
	// after at least WriteTimeout and at most twice that. Default 2s.
	WriteTimeout time.Duration
	// Dom0Token, when non-empty, is required in the handshake to bind a
	// connection to Dom0. Guest domains authenticate by reachability
	// alone, as on a XenBus transport.
	Dom0Token string
	// MaxTxns bounds concurrently open transactions per connection.
	// Default 64.
	MaxTxns int
	// Faults is a PR 2 fault-grammar spec (fault.ParseSpec) applied to the
	// server's store: stalewrite/watchdrop/watchdelay clauses exercise
	// clients against a misbehaving store. Empty disables injection.
	Faults string
	// FaultSeed seeds the injector's deterministic stream (default 1).
	FaultSeed uint64
}

func (o Options) withDefaults() Options {
	if o.NotifyQueue <= 0 {
		o.NotifyQueue = 1024
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 2 * time.Second
	}
	if o.MaxTxns <= 0 {
		o.MaxTxns = 64
	}
	return o
}

// Counters is a snapshot of the server's wire-level accounting, returned
// by OpStats as JSON (and by Server.Counters in-process).
type Counters struct {
	Accepted  uint64 `json:"accepted"`
	Active    uint64 `json:"active"`
	Evicted   uint64 `json:"evicted"`
	Events    uint64 `json:"events"`
	Coalesced uint64 `json:"coalesced"`

	StoreReads    uint64 `json:"store_reads"`
	StoreWrites   uint64 `json:"store_writes"`
	StoreNotifies uint64 `json:"store_notifies"`
	// StoreFiltered counts notifications the store withheld because the
	// watching domain may not read the written node
	// (store.FilteredNotifies): the first place to look when a watcher
	// hears nothing.
	StoreFiltered uint64 `json:"store_filtered,omitempty"`

	Batches     uint64 `json:"batches,omitempty"`
	BatchOps    uint64 `json:"batch_ops,omitempty"`
	Syncs       uint64 `json:"syncs,omitempty"`
	SyncMatches uint64 `json:"sync_matches,omitempty"`
	SyncDeltas  uint64 `json:"sync_deltas,omitempty"`
	SyncFulls   uint64 `json:"sync_fulls,omitempty"`

	FaultDroppedWrites   uint64 `json:"fault_dropped_writes,omitempty"`
	FaultDroppedNotifies uint64 `json:"fault_dropped_notifies,omitempty"`
	FaultDelayedNotifies uint64 `json:"fault_delayed_notifies,omitempty"`

	// TraceDropped counts trace lines a tail did not get because its
	// buffer was full (one per line per subscriber). The server retains
	// no record, so a dropped line is gone: a tail that must not miss any
	// reads faster, and checks here.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// tree is the state the store lock guards: the store, the private kernel
// that orders its watch deliveries, the trace recorder and the tails it
// feeds. The only *tree there is is the one do hands to the closure it
// runs, so holding one is holding the lock: a function that takes a
// *tree (enqueueEvent, repair, evict) can only be called from inside do.
//
// rec is a stream (trace.NewStream): it stamps and counts a record and
// hands it to Server.broadcast; nothing is retained. The server records
// for whoever is listening. The rare kinds (wire.conn, fault.inject) are
// always recorded, so their counts stay live; the per-operation kinds
// (wire.op, wire.batch, and the store's store.write and store.watch) are
// built only while tailed is set, which is exactly while a ServeTrace
// subscriber is attached — an untailed operation pays the test of that
// bit and of the store's nil recorder, and builds nothing.
type tree struct {
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder

	// tails holds one line buffer per attached trace subscriber; tailed is
	// len(tails) > 0, kept as a bit for the operation path.
	tails  map[chan []byte]struct{}
	tailed bool
}

// attach subscribes a trace tail. The first one switches the
// per-operation kinds on, the store's among them, so a tail sees every
// record of every operation that takes the store lock after this one.
func (t *tree) attach(ch chan []byte) {
	t.tails[ch] = struct{}{}
	t.tailed = true
	t.st.SetRecorder(t.rec)
}

// detach unsubscribes a tail; the last one out switches the
// per-operation kinds off again.
func (t *tree) detach(ch chan []byte) {
	delete(t.tails, ch)
	if len(t.tails) == 0 {
		t.tailed = false
		t.st.SetRecorder(nil)
	}
}

// Server hosts one store.Store behind the wire protocol. Create with
// NewServer, attach listeners with Serve, stop with Close.
//
// The store keeps its one-at-a-time discipline without a goroutine of
// its own: an operation runs to completion on the goroutine that decoded
// it, inside do, which takes the store lock, runs the operation and
// drains the private simulation kernel — so the watch notifications the
// operation scheduled are delivered (and queued on their connections)
// before the lock is released and before the operation's reply is
// queued. The order in which operations take the lock is the one total
// order of mutations; a connection's own operations keep their arrival
// order because its one reader goroutine runs them one after another.
// Nothing that can block on a peer — a socket write above all — happens
// under the lock.
type Server struct {
	opts Options

	// loopMu is the store lock. It guards tree, which only NewServer's
	// literal and do name, and every srvConn.watches.
	loopMu sync.Mutex
	tree   tree

	// quit is closed by Close, under loopMu, so do never runs an
	// operation once Close has got that far.
	quit chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[*srvConn]struct{}
	closed    bool
	nextConn  uint64

	accepted  atomic.Uint64
	evicted   atomic.Uint64
	events    atomic.Uint64
	coalesced atomic.Uint64

	batches  atomic.Uint64
	batchOps atomic.Uint64

	syncs       atomic.Uint64
	syncMatches atomic.Uint64
	syncDeltas  atomic.Uint64
	syncFulls   atomic.Uint64

	traceDropped atomic.Uint64
}

// NewServer builds a server around a fresh store. The store lives on a
// private simulation kernel with zero notification latency: virtual time
// only orders deliveries; the wire provides the real latency. A
// non-empty Options.Faults spec must parse, or NewServer panics: a store
// silently running without its requested faults would invalidate any
// soak result.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	k := sim.NewKernel()
	s := &Server{
		opts: opts,
		tree: tree{
			k:     k,
			st:    store.New(k, 0),
			rec:   trace.NewStream(k),
			tails: map[chan []byte]struct{}{},
		},
		quit:  make(chan struct{}),
		conns: map[*srvConn]struct{}{},
	}
	var spec fault.Spec
	if opts.Faults != "" {
		parsed, err := fault.ParseSpec(opts.Faults)
		if err != nil {
			panic(fmt.Sprintf("netstore: bad fault spec: %v", err))
		}
		spec = parsed
	}
	seed := opts.FaultSeed
	if seed == 0 {
		seed = 1
	}
	s.do(func(t *tree) {
		// The recorder only ever runs under the store lock, so its sink may
		// keep the tree. The store gets the recorder from the first tail.
		t.rec.SetSink(func(rec trace.Record) { s.broadcast(t, rec) })
		if opts.Faults != "" {
			inj := fault.NewInjector(t.k, spec, stats.NewStream(seed, "netstore/faults"))
			inj.SetRecorder(t.rec)
			if hooks := inj.StoreHooks(); hooks != nil {
				t.st.SetFaultHooks(hooks)
			}
		}
		// The /local/domain spine exists before the first handshake, so
		// trees seeded through Do hang off Dom0-owned structural nodes.
		t.st.EnsureRoot()
	})
	return s
}

// Do runs fn on the caller's goroutine with exclusive access to the
// store, then drains the watch deliveries it scheduled. It is how
// out-of-band wiring (fault hooks, seeding) composes with the server. It
// reports false without running fn if the server is closed. fn must not
// call Do, Counters or Close: the store lock is not reentrant.
func (s *Server) Do(fn func(st *store.Store)) bool {
	return s.do(func(t *tree) { fn(t.st) })
}

// do is the store loop and the one source of a *tree: it runs fn on the
// tree under the store lock, then drains the private kernel so every
// watch delivery fn scheduled has reached its connection's queue before
// the lock is released. It reports false without running fn once the
// server is closed. It stays a plain method: called through a func
// value or an interface, every op closure handed to it would escape.
func (s *Server) do(fn func(*tree)) bool {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	select {
	case <-s.quit:
		return false
	default:
	}
	t := &s.tree
	fn(t)
	t.k.Run()
	return true
}

// Serve accepts connections on l until the listener or server closes.
// It blocks; run one goroutine per listener.
func (s *Server) Serve(l net.Listener) error {
	return s.acceptLoop(l, s.startConn)
}

// acceptLoop registers l for Close and hands every connection it
// accepts to start, until the listener fails or the server closes.
func (s *Server) acceptLoop(l net.Listener, start func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		start(c)
	}
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

// Close stops the listeners, severs every connection and closes the
// store to further operations. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	s.loopMu.Lock()
	close(s.quit)
	s.loopMu.Unlock()
	s.wg.Wait()
}

// Counters snapshots the wire + store accounting.
func (s *Server) Counters() Counters {
	ctr := s.wireCounters()
	s.Do(ctr.addStore)
	return ctr
}

// wireCounters snapshots the server's own accounting, the store's aside.
func (s *Server) wireCounters() Counters {
	ctr := Counters{
		Accepted:     s.accepted.Load(),
		Evicted:      s.evicted.Load(),
		Events:       s.events.Load(),
		Coalesced:    s.coalesced.Load(),
		Batches:      s.batches.Load(),
		BatchOps:     s.batchOps.Load(),
		Syncs:        s.syncs.Load(),
		SyncMatches:  s.syncMatches.Load(),
		SyncDeltas:   s.syncDeltas.Load(),
		SyncFulls:    s.syncFulls.Load(),
		TraceDropped: s.traceDropped.Load(),
	}
	s.mu.Lock()
	ctr.Active = uint64(len(s.conns))
	s.mu.Unlock()
	return ctr
}

// addStore fills in the store's share; the caller holds the store lock.
func (ctr *Counters) addStore(st *store.Store) {
	ctr.StoreReads, ctr.StoreWrites, ctr.StoreNotifies = st.Stats()
	ctr.StoreFiltered = st.FilteredNotifies()
	ctr.FaultDroppedWrites, ctr.FaultDroppedNotifies, ctr.FaultDelayedNotifies = st.FaultStats()
}

// --- Live trace streaming ---------------------------------------------------

// broadcast is the recorder sink: it runs under the store lock, so it
// only marshals and hands off. A tail whose buffer is full loses the
// line — the store never waits for an observer — and, because nothing is
// retained, loses it for good; TraceDropped counts those.
func (s *Server) broadcast(t *tree, rec trace.Record) {
	if !t.tailed {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	for ch := range t.tails {
		select {
		case ch <- line:
		default:
			s.traceDropped.Add(1)
		}
	}
}

// ServeTrace streams NDJSON trace records to every connection accepted
// on l (the iorchestra-trace live-tail endpoint): each gets the records
// of every operation that takes the store lock after it attached, and
// nothing from before — the server keeps no history. It blocks like
// Serve.
func (s *Server) ServeTrace(l net.Listener) error {
	return s.acceptLoop(l, func(c net.Conn) {
		s.wg.Add(1)
		go s.serveTraceConn(c)
	})
}

// traceBuffer is how many lines a tail may fall behind before it starts
// losing them: seven 96-op hot frames' worth (145 records each), so a
// tail rides out a scheduling hiccup, and at most a few hundred KB held
// for one that has stopped reading.
const traceBuffer = 1024

func (s *Server) serveTraceConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	ch := make(chan []byte, traceBuffer)
	if !s.do(func(t *tree) { t.attach(ch) }) {
		return
	}
	defer s.do(func(t *tree) { t.detach(ch) })
	// Drain reads so a closing peer is noticed, and detached, even while
	// idle: a tail that has gone must not keep operations recording.
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		buf := make([]byte, 256)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case line := <-ch:
			c.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
			if _, err := c.Write(line); err != nil {
				return
			}
		case <-gone:
			return
		case <-s.quit:
			return
		}
	}
}

// --- Per-connection state ---------------------------------------------------

type eventKey struct {
	watch uint32
	path  string
}

// srvWatch is one registered watch: the store's id for it and idx, the
// index of its own queued events — path to the frame's absolute queue
// index, which survives pops. Its callback captured the map. Guarded by
// qmu.
type srvWatch struct {
	id  store.WatchID
	idx map[string]int
}

// outFrame is one queued outbound frame. A reply is its encoded payload
// in a pooled buffer. An event is queued undecoded — its key plus the
// store's own value string, no copy — so coalescing replaces a string,
// and only the value that survives to the writer is ever encoded. An
// event carries its watch's idx (nil marks a reply), so the writer
// deletes its entry whether or not the watch is still registered.
type outFrame struct {
	payload []byte
	idx     map[string]int
	key     eventKey
	value   string
}

// appendTo encodes the frame onto b behind its length prefix — the one
// place an event is encoded — and recycles a reply's pooled payload.
//
// hotpath
func (fr *outFrame) appendTo(b []byte) []byte {
	mark := len(b)
	e := enc{b: append(b, 0, 0, 0, 0)}
	if fr.idx != nil {
		e.op(OpEvent, 0)
		e.u32(fr.key.watch)
		e.str(fr.key.path)
		e.str(fr.value)
	} else {
		e.b = append(e.b, fr.payload...)
		putBuf(fr.payload)
	}
	binary.BigEndian.PutUint32(e.b[mark:], uint32(len(e.b)-mark-4))
	return e.b
}

// lagFactor sizes the per-connection lagged-key backlog as a multiple of
// Options.NotifyQueue. Lagged keys carry no value, so the multiple
// buys a deep repair window for little memory; a connection that falls
// further behind than this is severed (docs/WIRE_PROTOCOL.md §4).
const lagFactor = 64

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
	q       fifo[outFrame]
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
	// renc's buffer is a fresh pooled one per reply; req is cleared after
	// each frame and keeps only its subs array, the batch decode scratch.
	fr    frameReader
	paths pathTable
	req   req
	renc  enc
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

// enqueue appends a reply frame; replies are bounded by the peer's
// outstanding requests, so they bypass the notify-queue cap.
//
// hotpath
func (c *srvConn) enqueue(payload []byte) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.qclosed {
		return
	}
	c.q.push(outFrame{payload: payload})
	c.qcond.Signal()
}

// enqueueEvent queues a watch event under the notify-queue bound, with
// delta fan-out: an event still queued for the same (watch, path) has its
// value replaced by the newer one instead of queuing a second frame, so a
// connection that falls behind receives the net change per path, not the
// history — watch semantics promise "something changed here", never
// every intermediate value. Nothing is encoded here: value is the
// store's own string and the writer encodes whichever value is queued
// when it gets there. When the queue is full and nothing coalesces, the
// key alone is parked in lagged for repair; only a connection that
// exhausts that backlog too is evicted. It is called from watch delivery,
// with the tree the watch was registered on and the watch's own idx.
//
// hotpath
func (c *srvConn) enqueueEvent(t *tree, idx map[string]int, key eventKey, value string) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		return
	}
	if abs, queued := idx[key.path]; queued {
		c.q.at(abs).value = value // an index entry lives exactly as long as its frame
		c.qmu.Unlock()
		c.srv.coalesced.Add(1)
		return
	}
	if c.nEvents < c.srv.opts.NotifyQueue && len(c.lagged) == 0 {
		c.pushEventLocked(idx, key, value)
		c.qmu.Unlock()
		return
	}
	// No room for the value from here on: the key is what survives.
	if _, parked := c.lagIdx[key]; parked {
		c.qmu.Unlock()
		c.srv.coalesced.Add(1)
		return
	}
	if len(c.lagged) >= lagFactor*c.srv.opts.NotifyQueue {
		c.qmu.Unlock()
		c.evict(t, "notify backlog overflow")
		return
	}
	first := len(c.lagged) == 0
	c.lagged = append(c.lagged, key)
	c.lagIdx[key] = struct{}{}
	c.qmu.Unlock()
	if first {
		t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "lag", Path: key.path})
	}
}

// pushEventLocked appends an event frame; the caller holds qmu and has
// checked the bound.
//
// hotpath
func (c *srvConn) pushEventLocked(idx map[string]int, key eventKey, value string) {
	idx[key.path] = c.q.push(outFrame{idx: idx, key: key, value: value})
	c.nEvents++
	c.qcond.Signal()
	c.srv.events.Add(1)
}

// repair moves lagged keys into the room the writer has drained, oldest
// first, each with the value its path holds now. It holds the store
// lock (it has the tree), so no write can slip between the read and the
// enqueue, and events are only produced under that lock, so the room it
// measured cannot shrink underneath it.
func (c *srvConn) repair(t *tree) {
	c.qmu.Lock()
	n := min(len(c.lagged), c.srv.opts.NotifyQueue-c.nEvents)
	if c.qclosed || n <= 0 {
		c.qmu.Unlock()
		return
	}
	keys := c.lagged[:n:n]
	c.lagged = c.lagged[n:]
	for _, key := range keys {
		delete(c.lagIdx, key)
	}
	c.qmu.Unlock()
	evs := make([]outFrame, 0, len(keys))
	for _, key := range keys {
		w, live := c.watches[key.watch]
		if !live {
			continue
		}
		// Mirror live delivery: a removed path notifies with an empty
		// value, an unreadable one not at all.
		v, err := t.st.Read(c.dom, key.path)
		if err == nil || errors.Is(err, store.ErrNoEntry) {
			evs = append(evs, outFrame{idx: w.idx, key: key, value: v})
		}
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.qclosed {
		return
	}
	for _, ev := range evs {
		c.pushEventLocked(ev.idx, ev.key, ev.value)
	}
}

// evict severs a connection that cannot keep up and records why. It may
// run on the connection's own reader, when the operation it is running
// overflows its own backlog; shutdown waits for no goroutine, so that
// cannot deadlock.
func (c *srvConn) evict(t *tree, reason string) {
	if !c.dead.CompareAndSwap(false, true) {
		c.shutdown()
		return
	}
	c.shutdown()
	c.srv.evicted.Add(1)
	t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "evict", Path: reason})
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
		for c.q.len() == 0 && !c.qclosed {
			c.qcond.Wait()
		}
		if c.qclosed {
			c.qmu.Unlock()
			return
		}
		frames = frames[:0]
		total := 0
		for c.q.len() > 0 && total < coalesceBudget {
			fr := c.q.pop()
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

// handle is one frame on this, the connection's reader goroutine: the
// one request decoder, one hold of the store lock, the reply queued. A
// frame that does not decode is answered BAD_REQUEST and runs nothing; the
// connection stays up, so a bad request stays diagnosable.
func (c *srvConn) handle(op Op, id uint32, d *dec) {
	r, e := &c.req, &c.renc
	r.op = op
	d.req(r)
	*e = enc{b: getBuf(64)}
	e.op(OpReply, id)
	if err := d.done(); err != nil {
		e.status(err)
	} else if !c.srv.do(c.serve) {
		e.b = e.b[:replyHdr]
		e.status(ErrClosed)
	}
	out := e.b
	e.b = nil
	clear(r.subs) // the scratch must not pin the frame's values
	if *r = (req{subs: r.subs[:0]}); cap(r.subs) > subsKeep {
		r.subs = nil
	}
	c.enqueue(out)
}

// replyHdr is a reply payload up to its status byte: opcode, request id.
const replyHdr = 1 + 4

// subsKeep is the largest batch scratch either end of a connection keeps
// between frames — the server's decoded sub-ops, the client's op slice;
// a bigger batch's is dropped rather than pinned.
const subsKeep = 256

// serve runs the decoded frame c.req under the store lock and appends
// its reply to c.renc. The two kinds of frame differ only in this
// wrapper: a single op is one wire.op record and its own hold of the
// lock; a batch is one wire.batch record and one hold for its N sub-ops
// (the hot path's amortization), answered in request order behind an OK
// prefix and a count. The record is built before the op runs, whatever
// its outcome, and only while a tail is attached.
func (c *srvConn) serve(t *tree) {
	r, e := &c.req, &c.renc
	if r.op != OpBatch {
		if t.tailed {
			t.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: r.path, Value: r.op.String()})
		}
		c.exec(t, r, e)
		return
	}
	if t.tailed {
		t.rec.Record(trace.Record{Kind: trace.KindWireBatch, Dom: int(c.dom), Value: "batch", Size: int64(len(r.subs))})
	}
	e.status(nil)
	e.u32(uint32(len(r.subs)))
	for i := range r.subs {
		c.exec(t, &r.subs[i], e)
	}
	c.srv.batches.Add(1)
	c.srv.batchOps.Add(uint64(len(r.subs)))
}

// exec executes one op — a frame's own or a batch's sub-op — and appends
// its reply: status, message and, on OK, the body run appended behind the
// OK prefix. A failure rewinds to the prefix: a failed op has no body.
func (c *srvConn) exec(t *tree, r *req, e *enc) {
	mark := len(e.b)
	e.status(nil)
	if err := ops[r.op].run(c, t, r, e); err != nil {
		e.b = e.b[:mark]
		e.status(err)
	}
}

// --- The op table -------------------------------------------------------------

// opDesc describes one opcode, once.
type opDesc struct {
	name   string
	layout string // the request body: one letter per field in wire order (see req)
	batch  bool   // stateless: may ride in an OpBatch frame as a sub-op
	// run executes the decoded request under the store lock as the
	// connection's domain and appends the reply body to e. Nil for what a
	// client may not send, and for OpBatch, which is served as its sub-ops.
	run func(c *srvConn, t *tree, r *req, e *enc) error
}

// ops is the protocol's one description of its opcodes, indexed by code:
// Op.String, both ends' request codecs (enc.req, dec.req) and exec read
// it, and docs/WIRE_PROTOCOL.md §3 is checked against it.
var ops = [...]opDesc{
	OpHandshake: {name: "handshake"},
	OpReply:     {name: "reply"},
	OpEvent:     {name: "event"},
	OpRead:      {"read", "p", true, (*srvConn).opRead},
	OpWrite:     {"write", "pv", true, (*srvConn).opWrite},
	OpRemove:    {"remove", "p", true, (*srvConn).opRemove},
	OpList:      {"list", "p", true, (*srvConn).opList},
	OpGrant:     {"grant", "pdm", true, (*srvConn).opGrant},
	OpWatch:     {"watch", "ip", false, (*srvConn).opWatch},
	OpUnwatch:   {"unwatch", "i", false, (*srvConn).opUnwatch},
	OpTxnBegin:  {"txn.begin", "", false, (*srvConn).opTxnBegin},
	OpTxnRead:   {"txn.read", "ip", false, inTxn(txnRead)},
	OpTxnWrite:  {"txn.write", "ipv", false, inTxn(txnWrite)},
	OpTxnRemove: {"txn.remove", "ip", false, inTxn(txnRemove)},
	OpTxnCommit: {"txn.commit", "i", false, inTxn(txnEnd)},
	OpTxnAbort:  {"txn.abort", "i", false, inTxn(txnEnd)},
	OpStats:     {"stats", "", false, (*srvConn).opStats},
	OpPing:      {"ping", "", true, (*srvConn).opPing},
	OpBatch:     {name: "batch", layout: "b"},
	OpSync:      {"sync", "psh", false, (*srvConn).opSync},
}

func (c *srvConn) opPing(*tree, *req, *enc) error { return nil }

func (c *srvConn) opRead(t *tree, r *req, e *enc) error {
	v, err := t.st.Read(c.dom, r.path)
	e.str(v)
	return err
}

func (c *srvConn) opWrite(t *tree, r *req, _ *enc) error {
	return t.st.Write(c.dom, r.path, r.value)
}

func (c *srvConn) opRemove(t *tree, r *req, _ *enc) error { return t.st.Remove(c.dom, r.path) }

func (c *srvConn) opList(t *tree, r *req, e *enc) error {
	names, err := t.st.Children(c.dom, r.path)
	e.strs(names) // the store's own index, encoded under its lock
	return err
}

func (c *srvConn) opGrant(t *tree, r *req, _ *enc) error {
	return t.st.Grant(c.dom, r.path, r.target, r.perm)
}

// opWatch registers a watch under the client's id for it (r.id): event
// frames carry that id, so the store's own never crosses the wire.
func (c *srvConn) opWatch(t *tree, r *req, _ *enc) error {
	cwid := r.id
	if _, dup := c.watches[cwid]; dup {
		return fmt.Errorf("%w: watch id %d in use", ErrBadRequest, cwid)
	}
	idx := map[string]int{}
	wid, err := t.st.Watch(c.dom, r.path, func(path, value string) {
		c.enqueueEvent(t, idx, eventKey{watch: cwid, path: path}, value)
	})
	if err == nil {
		c.watches[cwid] = srvWatch{id: wid, idx: idx}
	}
	return err
}

func (c *srvConn) opUnwatch(t *tree, r *req, _ *enc) error {
	if w, ok := c.watches[r.id]; ok {
		t.st.Unwatch(w.id)
		delete(c.watches, r.id)
	}
	return nil
}

func (c *srvConn) opTxnBegin(t *tree, _ *req, e *enc) error {
	if len(c.txns) >= c.srv.opts.MaxTxns {
		return fmt.Errorf("%w: %d transactions already open", ErrBadRequest, len(c.txns))
	}
	c.nextTxn++
	c.txns[c.nextTxn] = t.st.Begin(c.dom)
	e.u32(c.nextTxn)
	return nil
}

// inTxn makes a row's run out of an op on the open transaction r.id names.
func inTxn(op func(*srvConn, *store.Txn, *req, *enc) error) func(*srvConn, *tree, *req, *enc) error {
	return func(c *srvConn, _ *tree, r *req, e *enc) error {
		if txn, ok := c.txns[r.id]; ok {
			return op(c, txn, r, e)
		}
		return fmt.Errorf("%w: %d", ErrUnknownTxn, r.id)
	}
}

func txnRead(_ *srvConn, txn *store.Txn, r *req, e *enc) error {
	v, err := txn.Read(r.path)
	e.str(v)
	return err
}

func txnWrite(_ *srvConn, txn *store.Txn, r *req, _ *enc) error { return txn.Write(r.path, r.value) }

func txnRemove(_ *srvConn, txn *store.Txn, r *req, _ *enc) error { return txn.Remove(r.path) }

// txnEnd finishes a transaction either way: the id is gone afterwards.
func txnEnd(c *srvConn, txn *store.Txn, r *req, _ *enc) error {
	delete(c.txns, r.id)
	if r.op == OpTxnAbort {
		txn.Abort()
		return nil
	}
	return txn.Commit()
}

func (c *srvConn) opStats(t *tree, _ *req, e *enc) error {
	ctr := c.srv.wireCounters()
	ctr.addStore(t.st)
	blob, err := json.Marshal(ctr)
	e.str(string(blob))
	return err
}

// opSync answers a catch-up request for one domain subtree with
// store.SyncSubtree's verdict as the connection's domain sees it; the
// version/hash pair anchors the client's next sync (WIRE_PROTOCOL.md §6).
func (c *srvConn) opSync(t *tree, r *req, e *enc) error {
	page, err := t.st.SyncSubtree(c.dom, r.path, r.since, r.known)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.srv.syncs.Add(1)
	switch page.Mode {
	case store.SyncMatch:
		c.srv.syncMatches.Add(1)
	case store.SyncDelta:
		c.srv.syncDeltas.Add(1)
	default:
		c.srv.syncFulls.Add(1)
	}
	e.u8(uint8(page.Mode))
	e.u64(page.Version)
	e.u64(page.Hash)
	e.u32(uint32(len(page.Pairs)))
	for _, kv := range page.Pairs {
		e.str(kv.Path)
		e.bool(kv.Removed)
		e.str(kv.Value)
	}
	return nil
}
