package trace

import (
	"testing"

	"iorchestra/internal/sim"
)

// TestTracerRecordsAndReturnsInOrder: the tracer keeps no events of its
// own; a traced run's Q/D/C events reach the recorder typed, counted
// and in order.
func TestTracerRecordsAndReturnsInOrder(t *testing.T) {
	k := sim.NewKernel()
	tr := New("md0")
	rec := NewRecorder(k, 8)
	tr.SetRecorder(rec)
	k.At(1, func() { tr.Record(Queue, 1, false, 4096) })
	k.At(2, func() { tr.Record(Issue, 1, false, 4096) })
	k.At(3, func() { tr.RecordComplete(1, false, 4096, 2) })
	k.Run()
	for _, kind := range []Kind{KindDevQueue, KindDevIssue, KindDevComplete} {
		if got := rec.Count(kind); got != 1 {
			t.Fatalf("Count(%s) = %d, want 1", kind, got)
		}
	}
	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("Events = %d", len(evs))
	}
	if evs[0].Kind != KindDevQueue || evs[1].Kind != KindDevIssue || evs[2].Kind != KindDevComplete {
		t.Fatalf("order wrong: %v", evs)
	}
	if evs[0].At != 1 || evs[2].At != 3 {
		t.Fatal("timestamps wrong")
	}
}

// TestTracerPathLatency: completions feed a per-owner (count, sum)
// whether or not a recorder is attached, and ForgetOwner restarts it.
func TestTracerPathLatency(t *testing.T) {
	tr := New("md0")
	tr.RecordComplete(1, true, 4096, 2*sim.Millisecond)
	tr.RecordComplete(1, false, 4096, 3*sim.Millisecond)
	tr.RecordComplete(2, true, 4096, 7*sim.Millisecond)
	tr.Record(Queue, 1, true, 4096)
	if count, sum := tr.PathLatency(1); count != 2 || sum != 5*sim.Millisecond {
		t.Fatalf("PathLatency(1) = %d, %v; want 2, 5ms", count, sum)
	}
	if count, sum := tr.PathLatency(3); count != 0 || sum != 0 {
		t.Fatalf("PathLatency(3) = %d, %v; want zeros", count, sum)
	}
	tr.ForgetOwner(1)
	tr.RecordComplete(1, true, 4096, sim.Millisecond)
	if count, sum := tr.PathLatency(1); count != 1 || sum != sim.Millisecond {
		t.Fatalf("PathLatency(1) after ForgetOwner = %d, %v; want 1, 1ms", count, sum)
	}
	if count, _ := tr.PathLatency(2); count != 1 {
		t.Fatalf("ForgetOwner(1) disturbed owner 2: count = %d", count)
	}
}
