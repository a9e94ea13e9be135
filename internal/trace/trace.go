// Package trace records per-device block-I/O events in the spirit of
// blktrace, which the paper's monitoring module uses to observe physical
// disk status. The tracer keeps one aggregate, each owner's host-path
// latency sum, which the G-state verdict reads through
// Monitor.GuestPathStats; the events themselves go to the Recorder when a
// run is traced.
package trace

import "iorchestra/internal/sim"

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
	device string

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

// New returns a tracer for one device.
func New(device string) *Tracer {
	return &Tracer{device: device, pathLat: map[int]*pathLatency{}}
}

// SetRecorder forwards every event into the unified decision-trace
// recorder.
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
	if t.rec == nil {
		return
	}
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
