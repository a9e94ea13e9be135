// Package trace records per-device block-I/O events in the spirit of
// blktrace, which the paper's monitoring module uses to observe physical
// disk status. The tracer keeps the windowed aggregates the monitoring
// module samples; the events themselves go to the Recorder when a run
// is traced.
package trace

import (
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

// Tracer collects events for one device.
type Tracer struct {
	k      *sim.Kernel
	device string

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

// New returns a tracer with 100 ms aggregation windows.
func New(k *sim.Kernel, device string) *Tracer {
	return &Tracer{
		k:         k,
		device:    device,
		completes: metrics.NewWindowRate(100*sim.Millisecond, 512),
		queues:    metrics.NewWindowRate(100*sim.Millisecond, 512),
		pathLat:   map[int]*pathLatency{},
	}
}

// SetRecorder forwards every event into the unified decision-trace
// recorder in addition to the local aggregates.
func (t *Tracer) SetRecorder(r *Recorder) { t.rec = r }

// Record notes an event. Completions should use RecordComplete so the
// host-path latency reaches the decision trace.
func (t *Tracer) Record(kind EventKind, owner int, write bool, size int64) {
	t.record(kind, owner, write, size, 0)
}

// RecordComplete notes a completion event carrying the host-path
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
	switch kind {
	case Complete:
		t.completes.Add(t.k.Now(), float64(size))
	case Queue:
		t.queues.Add(t.k.Now(), 1)
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

// CompletedBps reports the completion bandwidth over the trailing window.
func (t *Tracer) CompletedBps(now sim.Time) float64 { return t.completes.Rate(now) }

// QueueRate reports request arrivals per second over the trailing window.
func (t *Tracer) QueueRate(now sim.Time) float64 { return t.queues.Rate(now) }
