// Package trace is the unified decision trace: one (sim-time,
// seq)-ordered stream of typed records — the control plane's decisions
// and store traffic, and the host dispatch path's blktrace-style Q/D/C
// events, which the paper's monitoring module uses to observe physical
// disk status — exportable as NDJSON and counted per kind.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
)

// Kind classifies decision-trace records. Device-path kinds mirror
// blktrace's Q/D/C actions; the remaining kinds capture the control-plane
// decisions of Algorithms 1–3 and the store traffic that carries them.
// docs/ARCHITECTURE.md §7 documents which component emits each kind.
type Kind string

const (
	// KindStoreWrite is a system-store write: Dom is the writer,
	// Path/Value the node written.
	KindStoreWrite Kind = "store.write"
	// KindStoreWatch is a delivered watch notification: Dom is the
	// watching domain, Path/Value the change that fired it.
	KindStoreWatch Kind = "store.watch"

	// KindFlushOrder is a management-module flush decision (Algorithm 1):
	// flush_now=1 published to Dom/Disk carrying NrDirty and the device
	// bandwidth and utilization that justified it.
	KindFlushOrder Kind = "flush.order"
	// KindFlushSync is the guest driver's answering sync() (Algorithm 1,
	// notified branch), carrying the dirty-page count it is flushing.
	KindFlushSync Kind = "flush.sync"

	// KindCongestEngage is a guest queue crossing its congestion-on
	// threshold (QueueDepth = pending requests at that instant).
	KindCongestEngage Kind = "congest.engage"
	// KindCongestVeto is the management module ruling the host NOT
	// congested and releasing the querying guest (Algorithm 2).
	KindCongestVeto Kind = "congest.veto"
	// KindCongestConfirm is the management module confirming genuine host
	// congestion and holding the guest (Algorithm 2).
	KindCongestConfirm Kind = "congest.confirm"
	// KindCongestRelease is a held guest released on host relief, FIFO
	// with stagger (Algorithm 2).
	KindCongestRelease Kind = "congest.release"
	// KindQueueRelease is the guest-side collaborative release: avoidance
	// lifted, queue unplugged, producers woken.
	KindQueueRelease Kind = "queue.release"

	// KindCoschedUpdate is a co-scheduling weight update (Sec. 3.3):
	// CoreLatency holds the sampled per-core latencies L_i in seconds.
	KindCoschedUpdate Kind = "cosched.update"
	// KindCoschedMove is a guest driver migrating an I/O process to
	// Socket in response to published weight targets.
	KindCoschedMove Kind = "cosched.move"

	// KindDevQueue / KindDevIssue / KindDevComplete are the host dispatch
	// path's blktrace analogues (Q, D, C). KindDevComplete carries the
	// host-path latency (arrival at the dispatcher to completion).
	KindDevQueue    Kind = "dev.queue"
	KindDevIssue    Kind = "dev.issue"
	KindDevComplete Kind = "dev.complete"
	// KindDevService is a physical member device completing one request,
	// with its device-level service latency.
	KindDevService Kind = "dev.service"

	// KindFaultInject is an injected fault firing (internal/fault): Value
	// names the fault kind from the -faults spec grammar ("uncoop",
	// "crash", "restart", "watchdrop", "watchdelay", "stalewrite",
	// "stucksync", "member"), Dom/Disk/Path locate it.
	KindFaultInject Kind = "fault.inject"
	// KindHeartbeatMiss is the management module detecting a stale guest
	// heartbeat (Latency = time since the last beat); it precedes a
	// heartbeat-reason fallback.
	KindHeartbeatMiss Kind = "heartbeat.miss"
	// KindFlushTimeout is an unanswered flush_now order expiring its
	// deadline (Algorithm 1 degradation); Value carries the retry count
	// consumed so far for the (Dom, Disk) pair.
	KindFlushTimeout Kind = "flush.timeout"
	// KindReleaseRetry is the management module re-publishing an unacked
	// release_request after the release-ack timeout (Algorithm 2 degradation);
	// Value carries the retry number.
	KindReleaseRetry Kind = "release.retry"
	// KindReleaseTimeout is a release_request exhausting its bounded
	// retries; the guest enters fallback.
	KindReleaseTimeout Kind = "release.timeout"
	// KindHoldTimeout is a held guest force-released after the hold deadline
	// even though the host still looks congested — the safety valve that
	// keeps one stuck device from starving a held guest forever.
	KindHoldTimeout Kind = "hold.timeout"
	// KindFallbackEnter is a guest demoted to Baseline behavior (skipped
	// by Algorithm 1, unanswered in Algorithm 2, static in Algorithm 3);
	// Value names the reason ("heartbeat", "flush-deadline",
	// "release-deadline").
	KindFallbackEnter Kind = "fallback.enter"
	// KindFallbackExit is a guest restored to collaborative mode; Value
	// names the trigger ("driver-registered", "heartbeat-resumed").
	KindFallbackExit Kind = "fallback.exit"

	// KindWireOp is a netstore wire operation executed by the store
	// server: Dom is the connection's bound domain, Value names the opcode
	// and Path the operand (docs/WIRE_PROTOCOL.md).
	KindWireOp Kind = "wire.op"
	// KindWireConn is a netstore connection lifecycle event: Value is
	// "connect", "close", "lag" (event-queue overflow parked for repair;
	// Path is the first overflowed path) or "evict" (Path is the reason).
	KindWireConn Kind = "wire.conn"
	// KindWireBatch is one batched netstore frame: Dom is the
	// connection's bound domain and Size the number of sub-operations
	// the frame executed under one hold of the store lock. Individual
	// sub-ops are not recorded — the amortization is the point
	// (docs/WIRE_PROTOCOL.md §5).
	KindWireBatch Kind = "wire.batch"

	// Elastic G-state kinds (internal/gstate + the core controller,
	// docs/GSTATES.md). core.Counters reads each one's count from the
	// recorder.

	// KindGStateDemote is the controller stepping a guest one G-state
	// deeper under sustained contention: Value is the new state
	// ("G1".."G3"), Weight the new proportional share, Path the guest's
	// tier.
	KindGStateDemote Kind = "gstate.demote"
	// KindGStatePromote is the controller stepping a guest one G-state
	// back toward G0 on relief: Value is the new state, Weight the new
	// share, Path the guest's tier.
	KindGStatePromote Kind = "gstate.promote"
	// KindGStateViolation is an SLA-violation episode opening for a
	// guest: Path is its tier, Value the missed target ("bandwidth" or
	// "latency"). Accrued violation-seconds live in the Meter; only
	// onsets are traced.
	KindGStateViolation Kind = "gstate.violation"
	// KindGStateAdmit is admission control accepting a guest: Path is
	// its tier, Value "immediate" or "deferred" (a queued arrival
	// admitted on relief).
	KindGStateAdmit Kind = "gstate.admit"
	// KindGStateDefer is admission control parking a new bronze arrival
	// because gold is in violation: Path is the tier, Value the reason.
	KindGStateDefer Kind = "gstate.defer"
)

// Record is one decision-trace event. The zero value of every optional
// field is omitted from NDJSON so traces stay compact; At and Seq are
// stamped by the Recorder.
type Record struct {
	// Seq is a per-recorder monotonic sequence number; (At, Seq) is a
	// stable total order even for events recorded at the same sim tick.
	Seq uint64 `json:"seq"`
	// At is the simulation timestamp in nanoseconds.
	At sim.Time `json:"at"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Dom is the domain the event concerns (0 = the control domain).
	Dom int `json:"dom"`

	// Disk names a virtual disk (per-disk decisions), Device a physical
	// device (device-path events).
	Disk   string `json:"disk,omitempty"`
	Device string `json:"device,omitempty"`

	// Path and Value describe store traffic.
	Path  string `json:"path,omitempty"`
	Value string `json:"value,omitempty"`

	// Write and Size describe block requests.
	Write bool  `json:"write,omitempty"`
	Size  int64 `json:"size,omitempty"`
	// Latency is a per-request latency in nanoseconds (dev.complete:
	// host-path; dev.service: device service time).
	Latency sim.Time `json:"latency_ns,omitempty"`

	// NrDirty is a dirty-page count (flush decisions).
	NrDirty int64 `json:"nr_dirty,omitempty"`
	// DeviceBps and UtilFrac are the device observations behind a flush
	// decision (Algorithm 1's idle test).
	DeviceBps float64 `json:"device_bps,omitempty"`
	UtilFrac  float64 `json:"util_frac,omitempty"`

	// QueueDepth and DevPending are the dispatch backlog and device queue
	// depth behind a congestion verdict (Algorithm 2).
	QueueDepth int `json:"queue_depth,omitempty"`
	DevPending int `json:"dev_pending,omitempty"`

	// Socket and Weight describe co-scheduling moves; CoreLatency holds
	// the per-core latencies (seconds) behind a weight update.
	Socket      int       `json:"socket,omitempty"`
	Weight      float64   `json:"weight,omitempty"`
	CoreLatency []float64 `json:"core_latency,omitempty"`
}

// String renders the record as a one-line timeline entry.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v dom%-3d %-16s", r.At, r.Dom, r.Kind)
	if r.Disk != "" {
		fmt.Fprintf(&b, " disk=%s", r.Disk)
	}
	if r.Device != "" {
		fmt.Fprintf(&b, " dev=%s", r.Device)
	}
	if r.Path != "" {
		fmt.Fprintf(&b, " %s=%q", r.Path, r.Value)
	}
	if r.Size > 0 {
		rw := "R"
		if r.Write {
			rw = "W"
		}
		fmt.Fprintf(&b, " %s %dB", rw, r.Size)
	}
	if r.Latency > 0 {
		fmt.Fprintf(&b, " lat=%v", r.Latency)
	}
	if r.NrDirty > 0 {
		fmt.Fprintf(&b, " nr_dirty=%d", r.NrDirty)
	}
	if r.DeviceBps > 0 {
		fmt.Fprintf(&b, " bw=%.1fMB/s", r.DeviceBps/1e6)
	}
	if r.QueueDepth > 0 {
		fmt.Fprintf(&b, " qdepth=%d", r.QueueDepth)
	}
	if r.DevPending > 0 {
		fmt.Fprintf(&b, " dev_pending=%d", r.DevPending)
	}
	if len(r.CoreLatency) > 0 {
		fmt.Fprintf(&b, " L=%v", r.CoreLatency)
	}
	if r.Kind == KindCoschedMove {
		fmt.Fprintf(&b, " ->socket%d w=%g", r.Socket, r.Weight)
	}
	return b.String()
}

// Recorder collects decision-trace records for one platform. It keeps a
// bounded ring of recent records (for NDJSON export) plus unbounded
// aggregates: per-kind counts and the host-path latency histogram,
// which survive ring eviction so end-of-run summaries are exact.
//
// The per-kind counts are the decision ledger: core.Manager records
// every decision exactly once and answers Counters() from Count, so a count and its trace cannot disagree. A
// count-only recorder (NewCountOnly) is that ledger without a trace.
//
// A recorder comes in three shapes: a ring (NewRecorder: stamps,
// retains, feeds the sink), no ring (NewStream: stamps and feeds the
// sink, retains nothing) and count-only (NewCountOnly: the aggregates
// alone). A recorder with a kernel stamps At from its clock; one without
// leaves At zero.
//
// A Recorder belongs to one simulation kernel, or to whatever serializes
// its owner, and is not safe for concurrent use.
type Recorder struct {
	k         *sim.Kernel // nil in a count-only recorder and a clockless stream
	ring      []Record    // nil in a stream and in a count-only recorder
	countOnly bool
	head      int
	full      bool
	seq       uint64

	counts map[Kind]uint64
	// devLat aggregates dev.complete host-path latencies across every
	// domain, the feed for LatencyPercentile.
	devLat *metrics.Histogram

	// sink, when set, observes every record synchronously after it is
	// stamped — the feed for live NDJSON streaming (netstore's trace
	// endpoint). It runs on the recording goroutine and must not block.
	sink func(Record)
}

// DefaultRecorderCapacity bounds the event ring when no capacity is given.
const DefaultRecorderCapacity = 1 << 16

// NewRecorder returns a recorder bound to kernel k retaining up to
// capacity events (default DefaultRecorderCapacity).
func NewRecorder(k *sim.Kernel, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	r := NewStream(k)
	r.ring = make([]Record, capacity)
	return r
}

// NewStream returns a recorder that retains nothing: it stamps Seq, and
// At from kernel k when k is not nil, keeps the lifetime aggregates and
// hands each record to the sink. Events is always empty and Dropped
// always zero — a record nobody's sink took is simply gone. It is what a
// long-running server records into, with no kernel: whoever is listening
// gets the record, and no memory is spent on the ones nobody will read
// (netstore.Server).
func NewStream(k *sim.Kernel) *Recorder {
	return &Recorder{k: k, counts: map[Kind]uint64{}, devLat: metrics.NewHistogram()}
}

// NewCountOnly returns a recorder that keeps the lifetime aggregates and
// nothing else: no ring, no timestamps, no sink. Events is always empty.
// It is what a decision-maker books into when nobody is tracing.
func NewCountOnly() *Recorder {
	r := NewStream(nil)
	r.countOnly = true
	return r
}

// OrCountOnly returns r, or a fresh count-only recorder when r is nil:
// how a component that always counts its decisions adopts a trace
// recorder that exists only when tracing is on.
func OrCountOnly(r *Recorder) *Recorder {
	if r == nil {
		return NewCountOnly()
	}
	return r
}

// Record stamps rec with the next sequence number and the current sim
// time, folds it into the aggregates, appends it to the ring and hands
// it to the sink. A count-only recorder stops after the aggregates. A
// stream has no ring to keep the record in: the sink's copy is the only
// one.
func (r *Recorder) Record(rec Record) {
	rec.Seq = r.seq
	r.seq++
	r.counts[rec.Kind]++
	if rec.Kind == KindDevComplete {
		r.devLat.Record(rec.Latency)
	}
	if r.countOnly {
		return
	}
	if r.k != nil {
		rec.At = r.k.Now()
	}
	if r.ring != nil {
		r.ring[r.head] = rec
		r.head = (r.head + 1) % len(r.ring)
		if r.head == 0 {
			r.full = true
		}
	}
	if r.sink != nil {
		r.sink(rec)
	}
}

// SetSink installs (or, with nil, removes) a function observing every
// stamped record as it is recorded. The sink runs synchronously on the
// recording goroutine; a slow sink slows recording, so implementations
// hand records off (e.g. to a buffered channel) rather than doing I/O.
func (r *Recorder) SetSink(fn func(Record)) { r.sink = fn }

// Recorded reports the lifetime number of records (>= len(Events())).
func (r *Recorder) Recorded() uint64 { return r.seq }

// Dropped reports records evicted from the ring by capacity pressure.
func (r *Recorder) Dropped() uint64 {
	if !r.full {
		return 0
	}
	return r.seq - uint64(len(r.ring))
}

// Count reports the lifetime number of records of one kind.
func (r *Recorder) Count(kind Kind) uint64 { return r.counts[kind] }

// Counts returns a copy of the lifetime per-kind counters.
func (r *Recorder) Counts() map[Kind]uint64 {
	out := make(map[Kind]uint64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// LatencyPercentile reports the p-th percentile host-path completion
// latency across every domain (0 when nothing has completed) — the
// host-level health signal hypervisor.Monitor reports as HostPathP99.
func (r *Recorder) LatencyPercentile(p float64) sim.Time { return r.devLat.Percentile(p) }

// Events returns the retained records oldest-first. (At, Seq) is already
// non-decreasing, so no sort is needed.
func (r *Recorder) Events() []Record {
	if !r.full {
		out := make([]Record, r.head)
		copy(out, r.ring[:r.head])
		return out
	}
	out := make([]Record, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// WriteNDJSON encodes the retained records, one JSON object per line.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	return WriteNDJSON(w, r.Events())
}

// WriteNDJSON encodes records as newline-delimited JSON.
func WriteNDJSON(w io.Writer, events []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON decodes newline-delimited JSON records; blank lines are
// skipped, and a malformed line aborts with an error naming it.
func ReadNDJSON(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Summaries --------------------------------------------------------------

// DomainSummary aggregates one domain's decision activity over a trace.
type DomainSummary struct {
	Dom        int
	Counts     map[Kind]uint64
	DevLatency *metrics.Histogram // host-path completion latencies
	First      sim.Time
	Last       sim.Time
}

// Summary aggregates a whole trace for reporting.
type Summary struct {
	Domains []*DomainSummary // ascending domain id
	Counts  map[Kind]uint64  // all domains
	First   sim.Time
	Last    sim.Time
	Total   int
}

// Summarize folds a record slice (e.g. from ReadNDJSON or
// Recorder.Events) into per-domain decision summaries.
func Summarize(events []Record) *Summary {
	s := &Summary{Counts: map[Kind]uint64{}, First: sim.Forever}
	byDom := map[int]*DomainSummary{}
	for _, e := range events {
		s.Total++
		s.Counts[e.Kind]++
		if e.At < s.First {
			s.First = e.At
		}
		if e.At > s.Last {
			s.Last = e.At
		}
		d := byDom[e.Dom]
		if d == nil {
			d = &DomainSummary{
				Dom:        e.Dom,
				Counts:     map[Kind]uint64{},
				DevLatency: metrics.NewHistogram(),
				First:      sim.Forever,
			}
			byDom[e.Dom] = d
		}
		d.Counts[e.Kind]++
		if e.At < d.First {
			d.First = e.At
		}
		if e.At > d.Last {
			d.Last = e.At
		}
		if e.Kind == KindDevComplete {
			d.DevLatency.Record(e.Latency)
		}
	}
	if s.Total == 0 {
		s.First = 0
	}
	for _, d := range byDom {
		s.Domains = append(s.Domains, d)
	}
	sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].Dom < s.Domains[j].Dom })
	return s
}

// summaryKinds is the presentation order of decision counters.
var summaryKinds = []struct {
	kind  Kind
	label string
}{
	{KindFlushOrder, "flush orders"},
	{KindFlushSync, "flush syncs"},
	{KindCongestEngage, "congest engages"},
	{KindCongestVeto, "congest vetoes"},
	{KindCongestConfirm, "congest confirms"},
	{KindCongestRelease, "congest releases"},
	{KindQueueRelease, "queue releases"},
	{KindCoschedUpdate, "cosched updates"},
	{KindCoschedMove, "cosched moves"},
	{KindFaultInject, "injected faults"},
	{KindHeartbeatMiss, "heartbeat misses"},
	{KindFlushTimeout, "flush timeouts"},
	{KindReleaseRetry, "release retries"},
	{KindReleaseTimeout, "release timeouts"},
	{KindHoldTimeout, "hold timeouts"},
	{KindFallbackEnter, "fallbacks"},
	{KindFallbackExit, "restores"},
	{KindStoreWrite, "store writes"},
	{KindStoreWatch, "watch fires"},
	{KindWireOp, "wire ops"},
	{KindWireConn, "wire conns"},
	{KindWireBatch, "wire batches"},
	{KindGStateDemote, "gstate demotions"},
	{KindGStatePromote, "gstate promotions"},
	{KindGStateViolation, "sla violations"},
	{KindGStateAdmit, "gstate admissions"},
	{KindGStateDefer, "gstate deferrals"},
}

// Format renders the summary as the per-domain decision report the
// iorchestra-trace CLI prints.
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, %v – %v\n", s.Total, s.First, s.Last)
	for _, kl := range summaryKinds {
		if n := s.Counts[kl.kind]; n > 0 {
			fmt.Fprintf(&b, "  total %s: %d\n", kl.label, n)
		}
	}
	for _, d := range s.Domains {
		fmt.Fprintf(&b, "dom%d:", d.Dom)
		wrote := false
		for _, kl := range summaryKinds {
			if n := d.Counts[kl.kind]; n > 0 {
				if wrote {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " %d %s", n, kl.label)
				wrote = true
			}
		}
		if nc := d.Counts[KindDevComplete]; nc > 0 {
			if wrote {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %d completions (p50 %v, p99 %v device latency)",
				nc, d.DevLatency.Percentile(50), d.DevLatency.Percentile(99))
			wrote = true
		}
		if !wrote {
			b.WriteString(" no decision activity")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
