package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iorchestra/internal/netstore"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// hotSpec sizes wire_hotpath (netstore-load's tracked hot-path scenario).
type hotSpec struct {
	BatchOps   int `json:"batch_ops"`
	Keys       int `json:"keys"`
	ValueBytes int `json:"value_bytes"`
}

// loopSpec sizes wire_decision_loop's round script.
type loopSpec struct {
	// FlushPages is the manager's scripted Algorithm 1 rule: order a
	// flush when the published nr_dirty reaches it (8 MiB of 4 KiB pages).
	FlushPages int `json:"flush_pages"`
	// Every CongestEvery-th round is an Algorithm 2 exchange, every
	// WeightsEvery-th a transactional Algorithm 3 weight publish.
	CongestEvery int `json:"congest_every"`
	WeightsEvery int `json:"weights_every"`
}

// wireBed is an in-process netstore server on a Unix socket: host
// loopback, not a link — wire numbers include no network.
type wireBed struct {
	srv  *netstore.Server
	sock string
}

var sockSeq atomic.Uint64

// newWireBed starts a default-options server listening under dir. The
// socket path is kept relative and short: sun_path holds 108 bytes.
func newWireBed(dir string) (*wireBed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", sock, err)
	}
	srv := netstore.NewServer(netstore.Options{})
	// Serve returns (with the listener-closed error) when Close shuts the
	// listener, and Close waits for it.
	go func() { _ = srv.Serve(l) }()
	return &wireBed{srv: srv, sock: sock}, nil
}

func (b *wireBed) dial(dom store.DomID) (*netstore.Client, error) {
	return netstore.Dial("unix", b.sock, dom, "")
}

// close stops the server (which waits for its goroutines) and removes
// the socket file.
func (b *wireBed) close() {
	b.srv.Close()
	// The listener's Close normally unlinks the socket already.
	_ = os.Remove(b.sock)
}

// --- wire_hotpath -----------------------------------------------------------

const hotDom = store.DomID(1)

// hotClient is the single closed-loop client of wire_hotpath.
type hotClient struct {
	bed    *wireBed
	c      *netstore.Client
	base   string
	keys   []string
	pool   []string // seeded payloads; a write picks the next one
	last   []int    // pool index last written to each key (-1: the "0" seed)
	events atomic.Uint64
	dialS  float64
	tr     *tracer
	parent int
}

// onEvent counts the client's own watch stream.
func (h *hotClient) onEvent(path, value string) {
	id := h.tr.hot(h.parent, "watch.callback", 0)
	h.events.Add(1)
	h.tr.end(id, nil)
}

func newHotClient(dir string, spec hotSpec, seed uint64, tr *tracer, parent int) (*hotClient, error) {
	bed, err := newWireBed(dir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := bed.dial(hotDom)
	if err != nil {
		bed.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	h := &hotClient{bed: bed, c: c, base: store.DomainPath(hotDom), dialS: time.Since(t0).Seconds(), tr: tr, parent: parent}
	rng := stats.NewStream(seed, "bench/hotpath")
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 64; i++ {
		buf := make([]byte, spec.ValueBytes)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		h.pool = append(h.pool, string(buf))
	}
	for k := 0; k < spec.Keys; k++ {
		key := h.base + "/k" + strconv.Itoa(k)
		h.keys = append(h.keys, key)
		h.last = append(h.last, -1)
		if err := c.Write(key, "0"); err != nil {
			h.close()
			return nil, fmt.Errorf("seed %s: %w", key, err)
		}
	}
	if _, err := c.Watch(h.base, h.onEvent); err != nil {
		h.close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	return h, nil
}

func (h *hotClient) close() {
	h.c.Close()
	h.bed.close()
}

// hotOutcome is one timed run of the hot path.
type hotOutcome struct {
	wall     float64
	ops      uint64
	opErrs   uint64
	frames   []float64 // frame round trips, µs
	win      *windows
	mallocs  uint64
	bytes    uint64
	server   netstore.Counters
	events   uint64
	readBack []string // failures of the final read-back
	connErr  error
}

// run drives the closed loop for d: one 96-op frame in flight, ops in
// the fixed 6:1:1 write/read/list rotation over the key set.
func (h *hotClient) run(spec hotSpec, d time.Duration) hotOutcome {
	tr, parent := h.tr, h.parent
	var out hotOutcome
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, next := 0, 0
	start := time.Now()
	deadline := start.Add(d)
	out.win = newWindows(start)
	for time.Now().Before(deadline) {
		b := h.c.NewBatch()
		for j := 0; j < spec.BatchOps; j++ {
			k := n % len(h.keys)
			switch n % 8 {
			case 6:
				b.Read(h.keys[k])
			case 7:
				b.List(h.base)
			default:
				b.Write(h.keys[k], h.pool[next])
				h.last[k] = next
				next = (next + 1) % len(h.pool)
			}
			n++
		}
		id := tr.hot(parent, "netstore.batch", 0)
		t0 := time.Now()
		res, err := b.Run()
		done := time.Now()
		rtt := done.Sub(t0)
		tr.end(id, nil)
		if err != nil {
			out.opErrs += uint64(spec.BatchOps)
			continue
		}
		ok := 0
		for _, r := range res {
			if r.Err != nil {
				out.opErrs++
			} else {
				ok++
			}
		}
		out.ops += uint64(ok)
		us := float64(rtt.Nanoseconds()) / 1e3
		out.frames = append(out.frames, us)
		out.win.add(done, float64(ok), us)
	}
	out.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	out.readBack = h.readBack()
	out.connErr = h.c.Err()
	out.events = h.events.Load()
	out.server = h.bed.srv.Counters()
	sort.Float64s(out.frames)
	return out
}

// readBack checks that every key holds the last value written to it and
// returns the failures.
func (h *hotClient) readBack() []string {
	b := h.c.NewBatch()
	for _, key := range h.keys {
		b.Read(key)
	}
	res, err := b.Run()
	if err != nil {
		return []string{fmt.Sprintf("read-back batch: %v", err)}
	}
	var fails []string
	for i, r := range res {
		want := "0"
		if h.last[i] >= 0 {
			want = h.pool[h.last[i]]
		}
		if r.Err != nil || r.Value != want {
			fails = append(fails, fmt.Sprintf("read-back of %s differs from the last value written (err %v)", h.keys[i], r.Err))
		}
	}
	return fails
}

func (o *hotOutcome) check(res *result) {
	if o.opErrs > 0 {
		res.fail("%d operations failed", o.opErrs)
	}
	if o.server.Evicted > 0 {
		res.fail("server evicted %d connection(s)", o.server.Evicted)
	}
	if o.events == 0 {
		res.fail("client received no watch events")
	}
	if o.connErr != nil {
		res.fail("client connection died: %v", o.connErr)
	}
	res.Failures = append(res.Failures, o.readBack...)
}

func runHotPath(ctx runCtx) (*result, error) {
	const name = "wire_hotpath"
	spec := ctx.consts.HotPath
	res := &result{Workload: name, EndToEnd: metricSet{}, Exact: map[string]uint64{}}
	h, setup, err := timedSetups(ctx.consts.WireSetupReps, func() (*hotClient, error) {
		return newHotClient(ctx.outDir, spec, ctx.seed, nil, 0)
	}, (*hotClient).close)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	runtime.GC()
	ctx.log("%s: untraced pass, %d s", name, ctx.seconds)
	out := h.run(spec, time.Duration(ctx.seconds)*time.Second)
	dialMS := h.dialS * 1e3
	h.close()

	out.check(res)
	res.Attempted, res.Failed = out.ops+out.opErrs, out.opErrs+uint64(len(out.readBack))
	res.Latency = summarize(out.frames)
	res.EndToEnd["setup_s"] = setup
	res.Notes = append(res.Notes, fmt.Sprintf("in-process server on a Unix socket (host loopback, not a link); %d frames of %d ops", len(out.frames), spec.BatchOps))
	wireEndToEnd(res, out.win, float64(out.ops)/out.wall)

	if ctx.trace {
		tr := newTracer(name)
		root := tr.begin(0, "pass", 0)
		id := tr.begin(root, "wire.setup", 0)
		th, err := newHotClient(ctx.outDir, spec, ctx.seed, tr, root)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", name, err)
		}
		runtime.GC()
		ctx.log("%s: traced pass", name)
		tout := th.run(spec, time.Duration(ctx.seconds)*time.Second)
		th.close()
		tout.check(res)

		pl := metricSet{}
		res.PerLayer = pl
		wireCounters(pl, tout.server)
		pl["netstore.batch_rtt_p50_us"] = res.EndToEnd["latency_p50_us"]
		pl["netstore.dial_ms"] = dialMS
		pl["netstore.allocs_per_op"] = float64(out.mallocs) / float64(out.ops)
		pl["netstore.alloc_bytes_per_op"] = float64(out.bytes) / float64(out.ops)
		pl["trace.overhead_frac"] = res.EndToEnd["work_per_s"]/(float64(tout.ops)/tout.wall) - 1
		if err := wireProbes(ctx, pl, probeShape{keys: spec.Keys, valueBytes: spec.ValueBytes, domains: 1}, tr, root); err != nil {
			return nil, err
		}
		procMetrics(pl)
		tr.end(root, nil)
		if err := finishTrace(ctx, res, tr); err != nil {
			return nil, err
		}
	}
	res.seal()
	return res, nil
}

// wireEndToEnd fills work_per_s and latency_* from the whole run:
// completed work over the wall span and the percentiles pooled over every
// completion, so a stall that touches a few windows only still shows.
// latency_quiet_us is the pooled 0.1th percentile (quietPercentile), the one
// figure of the four a loud neighbour does not move. The median 500 ms
// window goes into a note: the distance between it and the run's figures
// says how uneven the run was.
func wireEndToEnd(res *result, w *windows, rate float64) {
	res.EndToEnd["work_per_s"] = rate
	res.EndToEnd["latency_p50_us"] = res.Latency.P50
	res.EndToEnd["latency_p99_us"] = res.Latency.P99
	res.EndToEnd["latency_quiet_us"] = res.Latency.Quiet
	if n, wr, w50, w99 := w.median(); n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("median of %d windows of 500 ms (informational): %.0f per s, p50 %.2f us, p99 %.2f us", n, wr, w50, w99))
	}
}

// wireCounters copies the server's public counters into the ledger.
func wireCounters(pl metricSet, c netstore.Counters) {
	pl["netstore.events"] = float64(c.Events)
	pl["netstore.coalesced"] = float64(c.Coalesced)
	if c.Events+c.Coalesced > 0 {
		pl["netstore.coalesce_ratio"] = float64(c.Coalesced) / float64(c.Events+c.Coalesced)
	}
	pl["netstore.batches"] = float64(c.Batches)
	if c.Batches > 0 {
		pl["netstore.ops_per_batch"] = float64(c.BatchOps) / float64(c.Batches)
	}
	pl["netstore.evicted"] = float64(c.Evicted)
	pl["store.writes"] = float64(c.StoreWrites)
	pl["store.reads"] = float64(c.StoreReads)
	pl["store.notifies"] = float64(c.StoreNotifies)
	if c.StoreWrites > 0 {
		pl["store.notifies_per_write"] = float64(c.StoreNotifies) / float64(c.StoreWrites)
	}
}

// --- wire_decision_loop -----------------------------------------------------

const loopGuestDom = store.DomID(3)

// Key suffixes of the exchange, as docs/STORE_KEYS.md names them; the
// absolute paths are built with store.DiskPath / store.DomainPath.
const (
	loopDisk = "xvda"

	sfxNrDirty   = "nr_dirty"
	sfxFlushNow  = "flush_now"
	sfxQuery     = "congest_query"
	sfxCongested = "congested"
	sfxRelease   = "release_request"
	sfxWeight    = "io/weight/"
	sfxTotal     = "io/total_weight"
	sfxTarget    = "io/target/"
	sfxHeartbeat = "iorchestra/heartbeat"
)

type loopKeys struct {
	base, nrDirty, flushNow, query, congested string
	release, w0, w1, total, t0, t1, heartbeat string
}

func newLoopKeys(dom store.DomID) loopKeys {
	base := store.DomainPath(dom)
	return loopKeys{
		base:      base,
		nrDirty:   store.DiskPath(dom, loopDisk, sfxNrDirty),
		flushNow:  store.DiskPath(dom, loopDisk, sfxFlushNow),
		query:     store.DiskPath(dom, loopDisk, sfxQuery),
		congested: store.DiskPath(dom, loopDisk, sfxCongested),
		release:   base + "/" + sfxRelease,
		w0:        base + "/" + sfxWeight + "0",
		w1:        base + "/" + sfxWeight + "1",
		total:     base + "/" + sfxTotal,
		t0:        base + "/" + sfxTarget + "0",
		t1:        base + "/" + sfxTarget + "1",
		heartbeat: base + "/" + sfxHeartbeat,
	}
}

func (k loopKeys) all() []string {
	return []string{k.nrDirty, k.flushNow, k.query, k.congested, k.release,
		k.w0, k.w1, k.total, k.t0, k.t1, k.heartbeat}
}

type roundKind int

const (
	roundFlush roundKind = iota
	roundCongest
	roundWeights
)

// roundScript is one round's inputs and the decisions the scripted rules
// demand for them. The driver publishes it before the round starts; the
// actors only read it.
type roundScript struct {
	n       int
	kind    roundKind
	nrDirty string // flush: published dirty-page count (≥ FlushPages)
	confirm bool   // congest: the host's scripted verdict
	w0, w1  string // weights: published per-socket weights
	total   string
	t0, t1  string // weights: the targets the rule demands
	span    int    // traced pass: the round's span
}

func targetsFor(w0s, w1s string) (t0, t1 string) {
	w0, _ := strconv.ParseFloat(w0s, 64)
	w1, _ := strconv.ParseFloat(w1s, 64)
	return strconv.FormatFloat(w0/(w0+w1), 'f', 4, 64), strconv.FormatFloat(w1/(w0+w1), 'f', 4, 64)
}

func nextRound(n int, spec loopSpec, rng *stats.Stream) *roundScript {
	s := &roundScript{n: n}
	switch {
	case n%spec.WeightsEvery == spec.WeightsEvery-1:
		s.kind = roundWeights
		w0, w1 := rng.Range(0.5, 2.0), rng.Range(0.5, 2.0)
		s.w0, s.w1 = strconv.FormatFloat(w0, 'f', 4, 64), strconv.FormatFloat(w1, 'f', 4, 64)
		s.total = strconv.FormatFloat(w0+w1, 'f', 4, 64)
		s.t0, s.t1 = targetsFor(s.w0, s.w1)
	case n%spec.CongestEvery == spec.CongestEvery-1:
		s.kind = roundCongest
		s.confirm = rng.Bool(0.5)
	default:
		s.kind = roundFlush
		s.nrDirty = strconv.Itoa(spec.FlushPages + rng.Intn(1<<16))
	}
	return s
}

// loopConn is the store surface both actors run on: a netstore client
// over the wire, or an in-process store for store.local_round_us.
type loopConn interface {
	Write(path, value string) error
	Read(path string) (string, error)
	Watch(prefix string, fn func(path, value string)) (store.WatchID, error)
	// publish3 writes three keys in one transaction, in order.
	publish3(paths, values [3]string) error
}

// wireLoopConn adapts a netstore client to loopConn.
type wireLoopConn struct{ c *netstore.Client }

func (w wireLoopConn) Write(path, value string) error   { return w.c.Write(path, value) }
func (w wireLoopConn) Read(path string) (string, error) { return w.c.Read(path) }
func (w wireLoopConn) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	return w.c.Watch(prefix, fn)
}
func (w wireLoopConn) publish3(paths, values [3]string) error {
	txn, err := w.c.Begin()
	for i := 0; err == nil && i < 3; i++ {
		err = txn.Write(paths[i], values[i])
	}
	if err == nil {
		err = txn.Commit()
	}
	return err
}

type localLoopConn struct {
	st  *store.Store
	dom store.DomID
}

func (l localLoopConn) Write(path, value string) error   { return l.st.Write(l.dom, path, value) }
func (l localLoopConn) Read(path string) (string, error) { return l.st.Read(l.dom, path) }
func (l localLoopConn) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	return l.st.Watch(l.dom, prefix, fn)
}
func (l localLoopConn) publish3(paths, values [3]string) error {
	txn := l.st.Begin(l.dom)
	for i := range paths {
		if err := txn.Write(paths[i], values[i]); err != nil {
			return err
		}
	}
	return txn.Commit()
}

// loopActor is the state shared by the two scripted sides. Each side's
// fields are touched only from its own callback goroutine during a round
// and read by the driver after the round's completion signal.
type loopActor struct {
	conn loopConn
	keys loopKeys
	spec loopSpec
	cur  *atomic.Pointer[roundScript]
	tr   *tracer

	// errs (transport errors and rule violations) and wrong (decisions
	// that did not carry the demanded value) are read by the driver while
	// a late callback may still be returning, hence the lock and atomic.
	mu       sync.Mutex
	errs     []string
	wrong    atomic.Uint64
	sawT0    string
	sawConf  bool
	complete func(n int) // manager only: the guest's ack was observed
}

func (a *loopActor) note(format string, args ...any) {
	a.mu.Lock()
	if len(a.errs) < 8 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
	a.mu.Unlock()
}

func (a *loopActor) notes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.errs...)
}

// write performs one store write of round s; in the traced pass it is a
// span under parent (the callback or the round that made it).
func (a *loopActor) write(parent int, s *roundScript, path, value string) {
	id := a.tr.hot(parent, "netstore.write", s.n+1)
	err := a.conn.Write(path, value)
	a.tr.end(id, nil)
	if err != nil {
		a.note("write %s: %v", path, err)
	}
}

func (a *loopActor) mismatch(s *roundScript, what, got, want string) {
	a.wrong.Add(1)
	a.note("round %d: %s = %q, rule demands %q", s.n, what, got, want)
}

// guestEvent is the guest driver's half of the protocol, dispatched from
// its watch over its own subtree.
func (a *loopActor) guestEvent(path, value string) {
	s := a.cur.Load()
	id := a.tr.hot(s.span, "watch.callback.guest", s.n+1)
	defer a.tr.end(id, nil)
	k := &a.keys
	switch path {
	case k.flushNow:
		if value != "1" {
			return // our own reset echoing back
		}
		if s.kind != roundFlush {
			a.mismatch(s, sfxFlushNow, value, "no order")
		}
		// sync() done: publish the clean state, then ack.
		a.write(id, s, k.nrDirty, "0")
		a.write(id, s, k.flushNow, "0")
	case k.congested:
		if value == "1" {
			a.sawConf = true
		}
	case k.release:
		if value != "1" {
			return
		}
		if a.sawConf != s.confirm {
			a.mismatch(s, "verdict confirm", strconv.FormatBool(a.sawConf), strconv.FormatBool(s.confirm))
		}
		if a.sawConf {
			a.write(id, s, k.congested, "0")
			a.sawConf = false
		}
		a.write(id, s, k.release, "0")
	case k.t0:
		a.sawT0 = value
	case k.t1:
		if a.sawT0 != s.t0 {
			a.mismatch(s, sfxTarget+"0", a.sawT0, s.t0)
		}
		if value != s.t1 {
			a.mismatch(s, sfxTarget+"1", value, s.t1)
		}
		a.write(id, s, k.heartbeat, strconv.Itoa(s.n+1))
	}
}

// mgrEvent is the management module's half, dispatched from Dom0's watch
// over the guest's subtree.
func (a *loopActor) mgrEvent(path, value string) {
	s := a.cur.Load()
	id := a.tr.hot(s.span, "watch.callback.mgr", s.n+1)
	defer a.tr.end(id, nil)
	k := &a.keys
	switch path {
	case k.nrDirty:
		if nr, err := strconv.Atoi(value); err == nil && nr >= a.spec.FlushPages {
			a.write(id, s, k.flushNow, "1")
		}
	case k.flushNow:
		if value == "0" {
			a.complete(s.n)
		}
	case k.query:
		if value != "1" {
			return
		}
		a.write(id, s, k.query, "0")
		if s.confirm {
			// Confirm, hold, and (the scripted device drains at once)
			// relieve.
			a.write(id, s, k.congested, "1")
		}
		a.write(id, s, k.release, "1")
	case k.release:
		if value == "0" {
			a.complete(s.n)
		}
	case k.total:
		w0, err0 := a.conn.Read(k.w0)
		w1, err1 := a.conn.Read(k.w1)
		if err0 != nil || err1 != nil {
			a.note("read weights: %v, %v", err0, err1)
			return
		}
		t0, t1 := targetsFor(w0, w1)
		a.write(id, s, k.t0, t0)
		a.write(id, s, k.t1, t1)
	case k.heartbeat:
		if value != "0" {
			a.complete(s.n)
		}
	}
}

// start publishes the round's opening write from the guest side.
func (a *loopActor) start(s *roundScript) {
	k := &a.keys
	switch s.kind {
	case roundFlush:
		a.write(s.span, s, k.nrDirty, s.nrDirty)
	case roundCongest:
		a.write(s.span, s, k.query, "1")
	case roundWeights:
		id := a.tr.hot(s.span, "netstore.txn", s.n+1)
		err := a.conn.publish3([3]string{k.w0, k.w1, k.total}, [3]string{s.w0, s.w1, s.total})
		a.tr.end(id, nil)
		if err != nil {
			a.note("weight publish: %v", err)
		}
	}
}

// loopPair wires a guest and a manager actor onto two conns: the guest
// pre-creates every key (guest-owned, so Dom0's writes stay readable to
// it — the registration discipline core.Driver documents), then both
// sides watch the guest's subtree.
func loopPair(guest, mgr loopConn, spec loopSpec, cur *atomic.Pointer[roundScript], tr *tracer, complete func(int)) (*loopActor, *loopActor, error) {
	keys := newLoopKeys(loopGuestDom)
	g := &loopActor{conn: guest, keys: keys, spec: spec, cur: cur, tr: tr}
	m := &loopActor{conn: mgr, keys: keys, spec: spec, cur: cur, tr: tr, complete: complete}
	for _, key := range keys.all() {
		if err := guest.Write(key, "0"); err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", key, err)
		}
	}
	if _, err := mgr.Watch(keys.base, m.mgrEvent); err != nil {
		return nil, nil, fmt.Errorf("manager watch: %w", err)
	}
	if _, err := guest.Watch(keys.base, g.guestEvent); err != nil {
		return nil, nil, fmt.Errorf("guest watch: %w", err)
	}
	return g, m, nil
}

// wireLoop is the assembled two-connection decision loop.
type wireLoop struct {
	bed        *wireBed
	gc, mc     *netstore.Client
	guest, mgr *loopActor
	cur        atomic.Pointer[roundScript]
	done       chan int
	dialS      float64
}

func newWireLoop(dir string, spec loopSpec, tr *tracer) (*wireLoop, error) {
	bed, err := newWireBed(dir)
	if err != nil {
		return nil, err
	}
	// One completion per round, consumed before the next round starts.
	l := &wireLoop{bed: bed, done: make(chan int, 1)}
	l.cur.Store(&roundScript{n: -1})
	t0 := time.Now()
	if l.gc, err = bed.dial(loopGuestDom); err != nil {
		bed.close()
		return nil, fmt.Errorf("dial guest: %w", err)
	}
	l.dialS = time.Since(t0).Seconds()
	if l.mc, err = bed.dial(store.Dom0); err != nil {
		l.gc.Close()
		bed.close()
		return nil, fmt.Errorf("dial dom0: %w", err)
	}
	l.guest, l.mgr, err = loopPair(
		wireLoopConn{l.gc}, wireLoopConn{l.mc},
		spec, &l.cur, tr, l.completed)
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *wireLoop) completed(n int) {
	select {
	case l.done <- n:
	default: // a duplicate ack; the per-round accounting reports it
	}
}

func (l *wireLoop) close() {
	l.gc.Close()
	l.mc.Close()
	l.bed.close()
}

// loopOutcome is one timed run of the decision loop.
type loopOutcome struct {
	wall      float64
	attempted uint64
	completed uint64
	rtts      []float64 // µs
	win       *windows
	wrong     uint64
	errs      []string
	server    netstore.Counters
	mallocs   uint64
	bytes     uint64
}

// roundTimeout bounds one round; a healthy round takes tens of µs.
const roundTimeout = 10 * time.Second

// run plays rounds for d, one in flight.
func (l *wireLoop) run(spec loopSpec, seed uint64, d time.Duration, tr *tracer, parent int) loopOutcome {
	var out loopOutcome
	rng := stats.NewStream(seed, "bench/decision")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	timer := time.NewTimer(roundTimeout)
	defer timer.Stop()
	start := time.Now()
	deadline := start.Add(d)
	out.win = newWindows(start)
rounds:
	for n := 0; time.Now().Before(deadline); n++ {
		s := nextRound(n, spec, rng)
		s.span = tr.hot(parent, "round", n+1)
		l.cur.Store(s)
		out.attempted++
		t0 := time.Now()
		l.guest.start(s)
		timer.Reset(roundTimeout)
		select {
		case got := <-l.done:
			done := time.Now()
			rtt := done.Sub(t0)
			tr.end(s.span, nil)
			if got != n {
				out.errs = append(out.errs, fmt.Sprintf("round %d: completion signalled for round %d", n, got))
				continue
			}
			out.completed++
			us := float64(rtt.Nanoseconds()) / 1e3
			out.rtts = append(out.rtts, us)
			out.win.add(done, 1, us)
		case <-timer.C:
			tr.end(s.span, nil)
			// A lost round desynchronises the script; stop here.
			out.errs = append(out.errs, fmt.Sprintf("round %d: no ack within %v", n, roundTimeout))
			break rounds
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	out.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	// A final round trip on each connection orders the actors' last
	// callback writes before the driver reads their state.
	for _, c := range []*netstore.Client{l.gc, l.mc} {
		if err := c.Ping(); err != nil {
			out.errs = append(out.errs, fmt.Sprintf("final ping: %v", err))
		}
		if err := c.Err(); err != nil {
			out.errs = append(out.errs, fmt.Sprintf("connection died: %v", err))
		}
	}
	out.wrong = l.guest.wrong.Load() + l.mgr.wrong.Load()
	out.errs = append(out.errs, l.guest.notes()...)
	out.errs = append(out.errs, l.mgr.notes()...)
	out.server = l.bed.srv.Counters()
	sort.Float64s(out.rtts)
	return out
}

func (o *loopOutcome) check(res *result) {
	if o.completed != o.attempted {
		res.fail("%d of %d rounds completed", o.completed, o.attempted)
	}
	if o.wrong > 0 {
		res.fail("%d decisions did not carry the value the scripted rule demands", o.wrong)
	}
	if o.server.Evicted > 0 {
		res.fail("server evicted %d connection(s)", o.server.Evicted)
	}
	for _, e := range o.errs {
		res.fail("%s", e)
	}
}

func runDecisionLoop(ctx runCtx) (*result, error) {
	const name = "wire_decision_loop"
	spec := ctx.consts.DecisionLoop
	res := &result{Workload: name, EndToEnd: metricSet{}, Exact: map[string]uint64{}}
	l, setup, err := timedSetups(ctx.consts.WireSetupReps, func() (*wireLoop, error) {
		return newWireLoop(ctx.outDir, spec, nil)
	}, (*wireLoop).close)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	runtime.GC()
	ctx.log("%s: untraced pass, %d s", name, ctx.seconds)
	out := l.run(spec, ctx.seed, time.Duration(ctx.seconds)*time.Second, nil, 0)
	dialMS := l.dialS * 1e3
	l.close()

	out.check(res)
	res.Attempted = out.attempted
	res.Failed = out.attempted - out.completed + out.wrong
	res.Latency = summarize(out.rtts)
	res.EndToEnd["setup_s"] = setup
	res.Notes = append(res.Notes, "in-process server on a Unix socket (host loopback, not a link)")
	wireEndToEnd(res, out.win, float64(out.completed)/out.wall)

	if ctx.trace {
		tr := newTracer(name)
		root := tr.begin(0, "pass", 0)
		id := tr.begin(root, "wire.setup", 0)
		tl, err := newWireLoop(ctx.outDir, spec, tr)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", name, err)
		}
		runtime.GC()
		ctx.log("%s: traced pass", name)
		tout := tl.run(spec, ctx.seed, time.Duration(ctx.seconds)*time.Second, tr, root)
		tl.close()
		tout.check(res)

		pl := metricSet{}
		res.PerLayer = pl
		wireCounters(pl, tout.server)
		ops := float64(out.server.StoreWrites + out.server.StoreReads)
		pl["netstore.dial_ms"] = dialMS
		pl["netstore.allocs_per_op"] = float64(out.mallocs) / ops
		pl["netstore.alloc_bytes_per_op"] = float64(out.bytes) / ops
		pl["trace.overhead_frac"] = res.EndToEnd["work_per_s"]/(float64(tout.completed)/tout.wall) - 1
		local, lerrs := probeLocalRound(spec, ctx.seed, tr, root)
		for _, e := range lerrs {
			res.fail("in-process rounds: %s", e)
		}
		pl["store.local_round_us"] = local
		pl["netstore.round_overhead_us"] = res.EndToEnd["latency_p50_us"] - local
		if err := wireProbes(ctx, pl, probeShape{keys: len(newLoopKeys(loopGuestDom).all()), valueBytes: 4, domains: 1}, tr, root); err != nil {
			return nil, err
		}
		procMetrics(pl)
		tr.end(root, nil)
		if err := finishTrace(ctx, res, tr); err != nil {
			return nil, err
		}
	}
	res.seal()
	return res, nil
}

// localRounds plays n rounds of the same script against an in-process
// store, draining the kernel once per round, and returns the per-round
// wall times in µs — what the protocol costs with no wire under it.
func localRounds(spec loopSpec, seed uint64, n int) ([]float64, []string) {
	k := sim.NewKernel()
	st := store.New(k, 0)
	st.AddDomain(loopGuestDom)
	var cur atomic.Pointer[roundScript]
	cur.Store(&roundScript{n: -1})
	done := -1
	g, m, err := loopPair(localLoopConn{st, loopGuestDom}, localLoopConn{st, store.Dom0}, spec, &cur, nil,
		func(r int) { done = r })
	if err != nil {
		return nil, []string{err.Error()}
	}
	k.Run()
	rng := stats.NewStream(seed, "bench/decision")
	rtts := make([]float64, 0, n)
	var errs []string
	for r := 0; r < n; r++ {
		s := nextRound(r, spec, rng)
		cur.Store(s)
		t0 := time.Now()
		g.start(s)
		k.Run()
		rtt := time.Since(t0)
		if done != r {
			errs = append(errs, fmt.Sprintf("local round %d did not complete", r))
			break
		}
		rtts = append(rtts, float64(rtt.Nanoseconds())/1e3)
	}
	if wrong := g.wrong.Load() + m.wrong.Load(); wrong > 0 {
		errs = append(errs, fmt.Sprintf("%d local decisions off script", wrong))
	}
	errs = append(errs, g.notes()...)
	errs = append(errs, m.notes()...)
	sort.Float64s(rtts)
	return rtts, errs
}
