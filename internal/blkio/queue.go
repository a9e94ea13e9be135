// Package blkio models the guest block I/O layer: a bounded request queue
// with merging, plugging, FIFO dispatch, and — centrally for this paper —
// Linux's congestion-avoidance scheme, which throttles request producers
// when the queue crosses 7/8 of its limit and releases them below 13/16
// (Sec. 2).
//
// The congestion decision is delegated to a CongestionController so the
// three systems under study differ only in that policy object: the
// baseline consults local state only, while IOrchestra's guest driver
// consults the host through the system store (Algorithm 2).
package blkio

import (
	"iorchestra/internal/device"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/trace"
)

// Lower is where dispatched requests go: in a guest this is the
// paravirtual frontend driver; in tests it may be a device directly.
type Lower interface {
	Dispatch(r *device.Request)
}

// LowerFunc adapts a function to the Lower interface.
type LowerFunc func(r *device.Request)

// Dispatch implements Lower.
func (f LowerFunc) Dispatch(r *device.Request) { f(r) }

// CongestionController decides how the queue reacts to crossing the
// congestion-on threshold.
type CongestionController interface {
	// OnCongested fires when pending crosses the on-threshold. Returning
	// true engages congestion avoidance (producers are put to sleep);
	// false leaves the queue unthrottled. Collaborative controllers may
	// return true now and call Queue.Release later.
	OnCongested(q *Queue) bool
	// OnUncongested fires when pending falls below the off-threshold
	// while avoidance is engaged.
	OnUncongested(q *Queue)
}

// LocalController reproduces stock Linux behaviour: avoidance engages
// purely on local queue depth. This is the baseline's semantics — and the
// source of the falsely-triggered throttling the paper measures.
type LocalController struct{}

// OnCongested implements CongestionController.
func (LocalController) OnCongested(*Queue) bool { return true }

// OnUncongested implements CongestionController.
func (LocalController) OnUncongested(*Queue) {}

// NeverController disables congestion avoidance entirely — the manual
// "congestion avoidance disabled" configuration of the paper's Sec. 2
// motivation test. Producers still sleep at the hard queue limit.
type NeverController struct{}

// OnCongested implements CongestionController.
func (NeverController) OnCongested(*Queue) bool { return false }

// OnUncongested implements CongestionController.
func (NeverController) OnUncongested(*Queue) {}

// Config parameterizes a queue.
type Config struct {
	// Name identifies the virtual device (e.g. "xvda").
	Name string
	// Limit is nr_requests (default 128).
	Limit int
	// DispatchWindow bounds requests in flight to the lower layer (the
	// ring size of the paravirtual device, default 32).
	DispatchWindow int
	// MaxMerge bounds the size of a merged request (default 512 KiB).
	MaxMerge int64
	// PlugDelay holds back dispatch briefly after the queue goes
	// non-empty so adjacent requests can merge (default 0 = no plugging).
	PlugDelay sim.Duration
	// PlugBatch unplugs early once this many requests are queued
	// (default 4, only meaningful with PlugDelay > 0).
	PlugBatch int
	// WakeMin/WakeMax bound the scheduler wake-up latency a producer
	// sleeping on a full queue pays when a slot frees (defaults
	// 200µs–2ms: an ordinary wait-queue wakeup).
	WakeMin, WakeMax sim.Duration
	// Controller decides congestion engagement (default LocalController).
	Controller CongestionController
}

// congWakeMin/congWakeMax bound the wake-up latency of producers put to
// sleep by congestion *avoidance* — Linux parks them in
// congestion_wait(BLK_RW_ASYNC, HZ/10) with jiffy-granularity timeouts of
// up to 100 ms, so these sleeps are an order of magnitude costlier than
// an ordinary wait-queue wakeup. This asymmetry is what makes falsely
// triggered avoidance so expensive (Sec. 2). Collaborative Release
// wake-ups use the fast path: the host's event-channel notification
// substitutes for the timeout.
const (
	congWakeMin = 10 * sim.Millisecond
	congWakeMax = 100 * sim.Millisecond
)

func (c *Config) fillDefaults() {
	if c.Limit <= 0 {
		c.Limit = device.DefaultQueueLimit
	}
	if c.DispatchWindow <= 0 {
		c.DispatchWindow = 32
	}
	if c.MaxMerge <= 0 {
		c.MaxMerge = 512 << 10
	}
	if c.PlugBatch <= 0 {
		c.PlugBatch = 4
	}
	if c.WakeMin <= 0 {
		c.WakeMin = 200 * sim.Microsecond
	}
	if c.WakeMax <= c.WakeMin {
		c.WakeMax = c.WakeMin + 2*sim.Millisecond
	}
	if c.Controller == nil {
		c.Controller = LocalController{}
	}
}

// Queue is one virtual device's block layer.
type Queue struct {
	k     *sim.Kernel
	cfg   Config
	rng   *stats.Stream
	lower Lower
	sched *NOOP

	pending    int // queued in scheduler + in flight below
	inFlight   int
	avoidance  bool
	plugged    bool
	plugEvent  *sim.Event
	plugCount  int
	producers  *sim.WaitQueue
	fullSleeps *sim.WaitQueue

	// Stats.
	submitted    uint64
	completedN   uint64
	merged       uint64
	throttled    uint64
	latency      *metrics.Histogram
	queueLatency *metrics.Histogram

	// rec, when set, receives congestion engage/release trace records
	// tagged with recDom (the owning domain).
	rec    *trace.Recorder
	recDom int

	// congestScale (0 = unscaled) shrinks the congestion thresholds
	// below the stock 7/8 and 13/16 points — the per-guest
	// congestion-threshold actuation of the G-state subsystem
	// (docs/GSTATES.md): a demoted guest engages avoidance earlier, so
	// its producers feel backpressure before the shrunken device share
	// backs the queue up.
	congestScale float64
}

// NewQueue builds a block-layer queue dispatching to lower.
func NewQueue(k *sim.Kernel, cfg Config, rng *stats.Stream, lower Lower) *Queue {
	cfg.fillDefaults()
	q := &Queue{
		k:            k,
		cfg:          cfg,
		rng:          rng,
		lower:        lower,
		sched:        NewNOOP(),
		producers:    sim.NewWaitQueue(k),
		fullSleeps:   sim.NewWaitQueue(k),
		latency:      metrics.NewHistogram(),
		queueLatency: metrics.NewHistogram(),
	}
	return q
}

// SetController swaps the congestion controller at runtime — installing
// the IOrchestra guest driver is exactly this operation ("the guest OSes
// are integrated with IOrchestra's driver code", Sec. 2).
func (q *Queue) SetController(c CongestionController) {
	if c == nil {
		c = LocalController{}
	}
	q.cfg.Controller = c
}

// SetRecorder mirrors congestion-avoidance engagements and collaborative
// releases into the decision-trace recorder, tagged with the owning
// domain.
func (q *Queue) SetRecorder(r *trace.Recorder, dom int) {
	q.rec = r
	q.recDom = dom
}

// AvoidanceEngaged reports whether congestion avoidance is active.
func (q *Queue) AvoidanceEngaged() bool { return q.avoidance }

// Submitted, Completed, Merged, Throttled expose lifetime counters.
func (q *Queue) Submitted() uint64 { return q.submitted }

// Completed reports completed requests.
func (q *Queue) Completed() uint64 { return q.completedN }

// Merged reports requests absorbed by merging.
func (q *Queue) Merged() uint64 { return q.merged }

// Throttled reports producer sleeps caused by congestion avoidance.
func (q *Queue) Throttled() uint64 { return q.throttled }

// Latency exposes the end-to-end (submit→complete) histogram.
func (q *Queue) Latency() *metrics.Histogram { return q.latency }

// QueueLatency exposes the submit→dispatch histogram.
func (q *Queue) QueueLatency() *metrics.Histogram { return q.queueLatency }

// SetCongestScale scales both congestion thresholds by f in (0, 1] —
// the guest driver applies its published G-state weight here, so a
// demoted guest self-throttles at a proportionally smaller backlog.
// Values outside (0, 1] reset to unscaled. Already-parked producers are
// unaffected; the new thresholds apply from the next submission.
func (q *Queue) SetCongestScale(f float64) {
	if f <= 0 || f >= 1 {
		f = 0
	}
	q.congestScale = f
}

// onThreshold and offThreshold are the Linux 7/8 and 13/16 points,
// shrunk by the G-state congestion scale when one is set. The scaled
// on-threshold never drops below 1, and both scale by the same factor
// so engage stays at or above release.
func (q *Queue) onThreshold() int {
	t := q.cfg.Limit * device.CongestedOnNum / device.CongestedOnDen
	if q.congestScale > 0 {
		if t = int(float64(t) * q.congestScale); t < 1 {
			t = 1
		}
	}
	return t
}
func (q *Queue) offThreshold() int {
	t := q.cfg.Limit * device.CongestedOffNum / device.CongestedOffDen
	if q.congestScale > 0 {
		t = int(float64(t) * q.congestScale)
	}
	return t
}

// Submit enqueues a request from a producer. If the queue is congested
// (and the controller engages avoidance) or full, the submission is
// parked and retried after wake-up — the producer only continues once the
// request has been accepted, which is how sleeping writers backpressure
// the application above.
func (q *Queue) Submit(r *device.Request) {
	q.submitted++
	q.trySubmit(r)
}

func (q *Queue) trySubmit(r *device.Request) {
	if q.pending >= q.cfg.Limit {
		// Hard full: the producer must sleep regardless of policy.
		q.throttled++
		q.fullSleeps.Wait(func() { q.trySubmit(r) })
		return
	}
	if q.avoidance {
		q.throttled++
		q.producers.Wait(func() { q.trySubmit(r) })
		return
	}
	q.accept(r)
	if !q.avoidance && q.pending >= q.onThreshold() {
		if q.cfg.Controller.OnCongested(q) {
			q.avoidance = true
			if q.rec != nil {
				q.rec.Record(trace.Record{
					Kind: trace.KindCongestEngage, Dom: q.recDom,
					Disk: q.cfg.Name, QueueDepth: q.pending,
				})
			}
		}
	}
}

func (q *Queue) accept(r *device.Request) {
	r.Submitted = q.k.Now()
	q.pending++
	if q.sched.Merge(r, q.cfg.MaxMerge) {
		q.merged++
		q.pending-- // merged request occupies no extra slot
		return
	}
	q.sched.Add(r)
	q.maybePlug()
	q.pump()
}

// maybePlug starts a plug window when the queue transitions to non-empty.
func (q *Queue) maybePlug() {
	if q.cfg.PlugDelay <= 0 || q.plugged || q.inFlight > 0 {
		return
	}
	if q.sched.Len() != 1 {
		return
	}
	q.plugged = true
	q.plugCount = 0
	q.plugEvent = q.k.After(q.cfg.PlugDelay, func() {
		q.plugged = false
		q.pump()
	})
}

// Unplug releases a plug window immediately and pumps dispatches; the
// IOrchestra release path calls this ("unplug and flush the request
// queue", Sec. 3.2).
func (q *Queue) Unplug() {
	if q.plugged {
		q.plugged = false
		q.k.Cancel(q.plugEvent)
	}
	q.pump()
}

// pump dispatches while the window and plug state allow.
func (q *Queue) pump() {
	if q.plugged {
		q.plugCount++
		if q.plugCount < q.cfg.PlugBatch {
			return
		}
		q.plugged = false
		q.k.Cancel(q.plugEvent)
	}
	for q.inFlight < q.cfg.DispatchWindow {
		r := q.sched.Next()
		if r == nil {
			return
		}
		q.inFlight++
		q.queueLatency.Record(q.k.Now() - r.Submitted)
		orig := r.Done
		r.Done = func() { q.complete(r, orig) }
		q.lower.Dispatch(r)
	}
}

func (q *Queue) complete(r *device.Request, done func()) {
	now := q.k.Now()
	q.inFlight--
	q.pending--
	q.completedN++
	q.latency.Record(now - r.Submitted)
	if done != nil {
		done()
	}
	// Congestion-off check.
	if q.avoidance && q.pending < q.offThreshold() {
		q.avoidance = false
		q.cfg.Controller.OnUncongested(q)
		q.wakeProducers()
	}
	// Hard-full sleepers get priority for freed slots.
	if q.pending < q.cfg.Limit {
		q.fullSleeps.WakeOne(q.wakeDelay())
	}
	q.pump()
}

// wakeDelay draws the scheduler latency a producer sleeping on a freed
// slot pays.
func (q *Queue) wakeDelay() sim.Duration {
	if q.rng == nil {
		return q.cfg.WakeMin
	}
	return q.cfg.WakeMin + sim.Duration(q.rng.Int63n(int64(q.cfg.WakeMax-q.cfg.WakeMin)))
}

// congWakeDelay draws the congestion_wait-style timeout a producer parked
// by congestion avoidance pays before resuming.
func (q *Queue) congWakeDelay() sim.Duration {
	if q.rng == nil {
		return congWakeMin
	}
	return congWakeMin + sim.Duration(q.rng.Int63n(int64(congWakeMax-congWakeMin)))
}

func (q *Queue) wakeProducers() {
	// Waking everything at once recreates the burst; wake each with an
	// independent timeout-granularity delay, preserving FIFO order.
	for q.producers.Len() > 0 {
		q.producers.WakeOne(q.congWakeDelay())
	}
}

// Release is the collaborative-release entry point (Algorithm 2): the
// host has determined its I/O subsystem is not actually congested, so
// avoidance is lifted, the queue is unplugged and flushed, and sleeping
// producers are woken FIFO with the caller-supplied stagger between them.
func (q *Queue) Release(stagger func(i int) sim.Duration) {
	if q.rec != nil {
		q.rec.Record(trace.Record{
			Kind: trace.KindQueueRelease, Dom: q.recDom,
			Disk: q.cfg.Name, QueueDepth: q.pending,
		})
	}
	q.avoidance = false
	q.Unplug()
	i := 0
	for q.producers.Len() > 0 {
		d := q.wakeDelay()
		if stagger != nil {
			d += stagger(i)
		}
		q.producers.WakeOne(d)
		i++
	}
}
