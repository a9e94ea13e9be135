package netstore

import (
	"encoding/json"
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
