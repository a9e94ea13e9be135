package blkio

import (
	"testing"

	"iorchestra/internal/device"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// instantLower completes requests after a fixed service delay.
type instantLower struct {
	k     *sim.Kernel
	delay sim.Duration
	seen  int
}

func (l *instantLower) Dispatch(r *device.Request) {
	l.seen++
	l.k.After(l.delay, r.Done)
}

func mkQueue(k *sim.Kernel, cfg Config, delay sim.Duration) (*Queue, *instantLower) {
	lower := &instantLower{k: k, delay: delay}
	q := NewQueue(k, cfg, stats.NewStream(1, "q"), lower)
	return q, lower
}

func TestSubmitCompletesThroughLower(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{Name: "xvda"}, sim.Millisecond)
	done := false
	q.Submit(&device.Request{Op: device.Read, Size: 4096, Done: func() { done = true }})
	k.Run()
	if !done || lower.seen != 1 {
		t.Fatalf("done=%v seen=%d", done, lower.seen)
	}
	if q.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", q.Pending())
	}
	if q.Completed() != 1 || q.Submitted() != 1 {
		t.Fatalf("counters: %d/%d", q.Completed(), q.Submitted())
	}
	if q.Latency().Count() != 1 || q.Latency().Mean() < sim.Millisecond {
		t.Fatalf("latency histogram: %v", q.Latency())
	}
}

func TestDispatchWindowBounded(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{DispatchWindow: 4}, sim.Second)
	for i := 0; i < 10; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1}) // non-sequential: no merge
	}
	if lower.seen != 4 {
		t.Fatalf("dispatched %d, want window 4", lower.seen)
	}
	k.RunUntil(1500 * sim.Millisecond)
	if lower.seen != 8 {
		t.Fatalf("dispatched %d after first batch completes, want 8", lower.seen)
	}
	k.Run()
}

func TestCongestionAvoidanceEngagesAndThrottles(t *testing.T) {
	k := sim.NewKernel()
	// Limit 16: on at 14, off below 13.
	q, _ := mkQueue(k, Config{Limit: 16, DispatchWindow: 1}, 10*sim.Millisecond)
	for i := 0; i < 14; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	}
	if !q.AvoidanceEngaged() {
		t.Fatalf("avoidance not engaged at %d/16", q.Pending())
	}
	// Next submission parks its producer.
	accepted := false
	q.Submit(&device.Request{Op: device.Read, Size: 1, Done: func() { accepted = true }})
	if q.ThrottledProducers() != 1 {
		t.Fatalf("ThrottledProducers = %d", q.ThrottledProducers())
	}
	if q.Throttled() != 1 {
		t.Fatalf("Throttled = %d", q.Throttled())
	}
	k.Run()
	if !accepted {
		t.Fatal("throttled producer never completed")
	}
	if q.AvoidanceEngaged() {
		t.Fatal("avoidance still engaged after drain")
	}
}

func TestOffThresholdWakesProducers(t *testing.T) {
	k := sim.NewKernel()
	q, _ := mkQueue(k, Config{Limit: 16, DispatchWindow: 2}, 5*sim.Millisecond)
	for i := 0; i < 14; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	}
	var wokenAt sim.Time
	q.Submit(&device.Request{Op: device.Read, Size: 1, Done: func() {}})
	// Track when the parked producer resubmits by watching Pending rise
	// back; instead observe completion count progresses past 14.
	k.Run()
	if q.Completed() != 15 {
		t.Fatalf("Completed = %d, want 15", q.Completed())
	}
	_ = wokenAt
}

// vetoController never engages avoidance — approximating a perfectly
// informed guest.
type vetoController struct{ asked int }

func (c *vetoController) OnCongested(*Queue) bool { c.asked++; return false }
func (c *vetoController) OnUncongested(*Queue)    {}

func TestControllerVetoPreventsThrottling(t *testing.T) {
	k := sim.NewKernel()
	ctl := &vetoController{}
	lower := &instantLower{k: k, delay: 10 * sim.Millisecond}
	q := NewQueue(k, Config{Limit: 16, DispatchWindow: 1, Controller: ctl}, stats.NewStream(2, "q"), lower)
	// 15 requests: above the on-threshold (14) but below the hard limit.
	for i := 0; i < 15; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	}
	if q.AvoidanceEngaged() {
		t.Fatal("avoidance engaged despite veto")
	}
	if ctl.asked == 0 {
		t.Fatal("controller never consulted")
	}
	if q.ThrottledProducers() != 0 {
		t.Fatalf("producers throttled despite veto: %d", q.ThrottledProducers())
	}
	k.Run()
}

func TestHardFullAlwaysSleeps(t *testing.T) {
	k := sim.NewKernel()
	ctl := &vetoController{}
	lower := &instantLower{k: k, delay: 10 * sim.Millisecond}
	q := NewQueue(k, Config{Limit: 8, DispatchWindow: 1, Controller: ctl}, stats.NewStream(3, "q"), lower)
	for i := 0; i < 10; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	}
	// 8 fill the queue; 2 sleep on hard-full even with avoidance vetoed.
	if q.ThrottledProducers() != 2 {
		t.Fatalf("hard-full sleepers = %d, want 2", q.ThrottledProducers())
	}
	k.Run()
	if q.Completed() != 10 {
		t.Fatalf("Completed = %d", q.Completed())
	}
}

func TestReleaseWakesFIFOWithStagger(t *testing.T) {
	k := sim.NewKernel()
	q, _ := mkQueue(k, Config{Limit: 16, DispatchWindow: 1, WakeMin: sim.Microsecond, WakeMax: 2 * sim.Microsecond}, sim.Second)
	for i := 0; i < 14; i++ {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	}
	if !q.AvoidanceEngaged() {
		t.Fatal("setup: avoidance should be engaged")
	}
	q.Submit(&device.Request{Op: device.Read, Size: 1})
	q.Submit(&device.Request{Op: device.Read, Size: 1})
	if q.ThrottledProducers() != 2 {
		t.Fatalf("setup: throttled = %d", q.ThrottledProducers())
	}
	q.Release(func(i int) sim.Duration { return sim.Duration(i) * 10 * sim.Millisecond })
	if q.AvoidanceEngaged() {
		t.Fatal("Release did not lift avoidance")
	}
	if q.ThrottledProducers() != 0 {
		t.Fatalf("Release left %d sleepers", q.ThrottledProducers())
	}
	k.Run()
}

func TestMergingCombinesSequential(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{DispatchWindow: 1, MaxMerge: 1 << 20}, 10*sim.Millisecond)
	doneCount := 0
	// First request dispatches immediately (window 1); the next three
	// sequential requests queue and merge into one.
	for i := 0; i < 4; i++ {
		q.Submit(&device.Request{Op: device.Write, Size: 64 << 10, Sequential: true,
			Done: func() { doneCount++ }})
	}
	k.Run()
	if doneCount != 4 {
		t.Fatalf("doneCount = %d, want all four callbacks", doneCount)
	}
	if lower.seen != 2 {
		t.Fatalf("lower saw %d requests, want 2 (1 direct + 1 merged)", lower.seen)
	}
	if q.Merged() != 2 {
		t.Fatalf("Merged = %d, want 2", q.Merged())
	}
}

func TestMergeRespectsMaxAndDirection(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{DispatchWindow: 1, MaxMerge: 100 << 10}, 10*sim.Millisecond)
	q.Submit(&device.Request{Op: device.Write, Size: 4096, Sequential: true})     // in flight
	q.Submit(&device.Request{Op: device.Write, Size: 64 << 10, Sequential: true}) // queued
	q.Submit(&device.Request{Op: device.Write, Size: 64 << 10, Sequential: true}) // too big to merge
	q.Submit(&device.Request{Op: device.Read, Size: 1 << 10, Sequential: true})   // wrong direction
	q.Submit(&device.Request{Op: device.Write, Size: 1 << 10, Sequential: false}) // not sequential
	k.Run()
	if q.Merged() != 0 {
		t.Fatalf("Merged = %d, want 0", q.Merged())
	}
	if lower.seen != 5 {
		t.Fatalf("lower saw %d", lower.seen)
	}
}

func TestPluggingDelaysAndBatches(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{PlugDelay: 3 * sim.Millisecond, PlugBatch: 4, MaxMerge: 1}, sim.Microsecond)
	k.At(sim.Millisecond, func() {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
	})
	k.RunUntil(2 * sim.Millisecond)
	if lower.seen != 0 {
		t.Fatal("plugged queue dispatched early")
	}
	k.RunUntil(5 * sim.Millisecond)
	if lower.seen != 1 {
		t.Fatalf("plug timer did not flush: seen=%d", lower.seen)
	}
	k.Run()

	// Batch-triggered unplug: 4 rapid submissions flush before the timer.
	k2 := sim.NewKernel()
	q2, lower2 := mkQueue(k2, Config{PlugDelay: sim.Second, PlugBatch: 4, MaxMerge: 1}, sim.Microsecond)
	k2.At(sim.Millisecond, func() {
		for i := 0; i < 4; i++ {
			q2.Submit(&device.Request{Op: device.Read, Size: 1})
		}
	})
	k2.RunUntil(10 * sim.Millisecond)
	if lower2.seen != 4 {
		t.Fatalf("batch unplug: seen=%d, want 4", lower2.seen)
	}
}

func TestUnplugFlushesImmediately(t *testing.T) {
	k := sim.NewKernel()
	q, lower := mkQueue(k, Config{PlugDelay: sim.Second, PlugBatch: 100, MaxMerge: 1}, sim.Microsecond)
	k.At(sim.Millisecond, func() {
		q.Submit(&device.Request{Op: device.Read, Size: 1})
		q.Unplug()
	})
	k.RunUntil(2 * sim.Millisecond)
	if lower.seen != 1 {
		t.Fatalf("Unplug did not flush: seen=%d", lower.seen)
	}
	k.Run()
}

func TestQueueLatencyRecorded(t *testing.T) {
	k := sim.NewKernel()
	q, _ := mkQueue(k, Config{DispatchWindow: 1}, 10*sim.Millisecond)
	q.Submit(&device.Request{Op: device.Read, Size: 1})
	q.Submit(&device.Request{Op: device.Read, Size: 1})
	k.Run()
	if q.QueueLatency().Count() != 2 {
		t.Fatalf("QueueLatency count = %d", q.QueueLatency().Count())
	}
	// Second request waited ~10ms behind the first.
	if q.QueueLatency().Max() < 9*sim.Millisecond {
		t.Fatalf("QueueLatency max = %v", q.QueueLatency().Max())
	}
}

func TestNOOPSchedulerFIFO(t *testing.T) {
	s := NewNOOP()
	a := &device.Request{Op: device.Read, Size: 1}
	b := &device.Request{Op: device.Read, Size: 2}
	s.Add(a)
	s.Add(b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Next(); got != a {
		t.Fatal("NOOP not FIFO")
	}
	if got := s.Next(); got != b {
		t.Fatal("NOOP not FIFO")
	}
	if s.Next() != nil {
		t.Fatal("Next on empty != nil")
	}
}

func TestMergedDoneCallbacksAllFire(t *testing.T) {
	s := NewNOOP()
	count := 0
	a := &device.Request{Op: device.Write, Size: 1, Sequential: true, Done: func() { count++ }}
	s.Add(a)
	for i := 0; i < 3; i++ {
		b := &device.Request{Op: device.Write, Size: 1, Sequential: true, Done: func() { count++ }}
		if !s.Merge(b, 1<<20) {
			t.Fatal("merge failed")
		}
	}
	got := s.Next()
	got.Done()
	if count != 4 {
		t.Fatalf("merged Done fired %d, want 4", count)
	}
}
