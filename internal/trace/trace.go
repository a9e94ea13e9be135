// Package trace records per-device block-I/O events in the spirit of
// blktrace, which the paper's monitoring module uses to observe physical
// disk status. The tracer keeps a bounded ring of events plus windowed
// aggregates the monitoring module samples.
package trace

import (
	"fmt"

	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
)

// EventKind classifies trace events, mirroring blktrace actions.
type EventKind uint8

const (
	// Queue: request entered the device queue (blktrace Q).
	Queue EventKind = iota
	// Issue: request issued to the device (blktrace D).
	Issue
	// Complete: request finished (blktrace C).
	Complete
)

// String names the event kind with blktrace letters.
func (k EventKind) String() string {
	switch k {
	case Queue:
		return "Q"
	case Issue:
		return "D"
	default:
		return "C"
	}
}

// Event is one trace record.
type Event struct {
	At     sim.Time
	Kind   EventKind
	Device string
	Owner  int
	Write  bool
	Size   int64
}

// String renders the event like a blktrace line.
func (e Event) String() string {
	rw := "R"
	if e.Write {
		rw = "W"
	}
	return fmt.Sprintf("%v %s %s %s %d dom%d", e.At, e.Device, e.Kind, rw, e.Size, e.Owner)
}

// Tracer collects events for one device.
type Tracer struct {
	k      *sim.Kernel
	device string
	ring   []Event
	head   int
	full   bool

	completes *metrics.WindowRate // bytes completed, trailing window
	queues    *metrics.WindowRate // requests queued, trailing window
	// pathLat[owner] is the lifetime completion count and summed
	// host-path latency of one owner's requests.
	pathLat map[int]*pathLatency

	// rec, when set, receives each event as a typed decision-trace record
	// (dev.queue / dev.issue / dev.complete) for the unified pipeline.
	rec *Recorder
}

// pathLatency is one owner's lifetime host-path completion aggregate.
type pathLatency struct {
	count uint64
	sum   sim.Duration
}

// New returns a tracer with a ring of the given capacity (default 4096)
// and 100 ms aggregation windows.
func New(k *sim.Kernel, device string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{
		k:         k,
		device:    device,
		ring:      make([]Event, capacity),
		completes: metrics.NewWindowRate(100*sim.Millisecond, 512),
		queues:    metrics.NewWindowRate(100*sim.Millisecond, 512),
		pathLat:   map[int]*pathLatency{},
	}
}

// SetRecorder forwards every event into the unified decision-trace
// recorder in addition to the local ring and aggregates.
func (t *Tracer) SetRecorder(r *Recorder) { t.rec = r }

// Record appends an event. Completions should use RecordComplete so the
// host-path latency reaches the decision trace.
func (t *Tracer) Record(kind EventKind, owner int, write bool, size int64) {
	t.record(kind, owner, write, size, 0)
}

// RecordComplete appends a completion event carrying the host-path
// latency (arrival at the dispatcher to completion).
func (t *Tracer) RecordComplete(owner int, write bool, size int64, latency sim.Duration) {
	pl := t.pathLat[owner]
	if pl == nil {
		pl = &pathLatency{}
		t.pathLat[owner] = pl
	}
	pl.count++
	pl.sum += latency
	t.record(Complete, owner, write, size, latency)
}

// PathLatency reports the completion count and summed host-path latency
// of owner's requests since the tracer was built (or since ForgetOwner).
// Two snapshots give a windowed mean.
func (t *Tracer) PathLatency(owner int) (count uint64, sum sim.Duration) {
	if pl := t.pathLat[owner]; pl != nil {
		return pl.count, pl.sum
	}
	return 0, 0
}

// ForgetOwner drops a departed owner's host-path aggregate.
func (t *Tracer) ForgetOwner(owner int) { delete(t.pathLat, owner) }

func (t *Tracer) record(kind EventKind, owner int, write bool, size int64, latency sim.Duration) {
	e := Event{At: t.k.Now(), Kind: kind, Device: t.device, Owner: owner, Write: write, Size: size}
	t.ring[t.head] = e
	t.head = (t.head + 1) % len(t.ring)
	if t.head == 0 {
		t.full = true
	}
	switch kind {
	case Complete:
		t.completes.Add(e.At, float64(size))
	case Queue:
		t.queues.Add(e.At, 1)
	}
	if t.rec != nil {
		rk := KindDevQueue
		switch kind {
		case Issue:
			rk = KindDevIssue
		case Complete:
			rk = KindDevComplete
		}
		t.rec.Record(Record{
			Kind: rk, Dom: owner, Device: t.device,
			Write: write, Size: size, Latency: latency,
		})
	}
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if !t.full {
		out := make([]Event, t.head)
		copy(out, t.ring[:t.head])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// CompletedBps reports the completion bandwidth over the trailing window.
func (t *Tracer) CompletedBps(now sim.Time) float64 { return t.completes.Rate(now) }

// QueueRate reports request arrivals per second over the trailing window.
func (t *Tracer) QueueRate(now sim.Time) float64 { return t.queues.Rate(now) }
