package sim

import (
	"fmt"
)

// Event is a scheduled callback. Events are returned by the scheduling
// methods so that callers can cancel them; a zero Event is never returned.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // heap index, -1 when not queued
	canceled bool
}

// heapSlot is one calendar entry with the ordering key held inline, so
// sift comparisons read sequential heap memory instead of dereferencing
// two Events per compare — the difference profiles as the simulator's
// hottest loop at scale. e.at/e.seq mirror the slot key.
type heapSlot struct {
	at  Time
	seq uint64
	e   *Event
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). The comparison is
// a strict total order (seq is unique), so dispatch order is identical
// for any valid heap shape — the arity and the hole-based sifts are
// pure mechanical sympathy: one level per four contiguous children and
// one slot store per level, instead of container/heap's interface calls
// and pairwise swaps.
type eventHeap []heapSlot

func slotBefore(a, b heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves h[i] toward the root until its parent fires no later.
func (h eventHeap) siftUp(i int) {
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !slotBefore(s, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.index = i
		i = p
	}
	h[i] = s
	s.e.index = i
}

// siftDown moves h[i] toward the leaves until no child fires earlier.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	s := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if slotBefore(h[j], h[m]) {
				m = j
			}
		}
		if !slotBefore(h[m], s) {
			break
		}
		h[i] = h[m]
		h[i].e.index = i
		i = m
	}
	h[i] = s
	s.e.index = i
}

// push appends e and restores heap order.
func (k *Kernel) pushEvent(e *Event) {
	e.index = len(k.events)
	k.events = append(k.events, heapSlot{at: e.at, seq: e.seq, e: e})
	k.events.siftUp(e.index)
}

// popEvent removes and returns the earliest event.
func (k *Kernel) popEvent() *Event {
	h := k.events
	e := h[0].e
	n := len(h) - 1
	last := h[n]
	h[n] = heapSlot{}
	k.events = h[:n]
	e.index = -1
	if n == 0 {
		return e
	}
	h = h[:n]
	// Bottom-up reinsertion (Wegener's heapsort trick): walk the root hole
	// down the min-child path to a leaf, then sift the displaced bottom
	// slot up from there. The displaced slot almost always belongs near a
	// leaf, so this saves the per-level comparison against it that a
	// classic siftDown pays on the simulator's hottest loop.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if slotBefore(h[j], h[m]) {
				m = j
			}
		}
		h[i] = h[m]
		h[i].e.index = i
		i = m
	}
	h[i] = last
	h.siftUp(i)
	return e
}

// removeEvent deletes the event at index i.
func (k *Kernel) removeEvent(i int) {
	h := k.events
	n := len(h) - 1
	e := h[i].e
	last := h[n]
	h[n] = heapSlot{}
	k.events = h[:n]
	e.index = -1
	if i < n {
		h[i] = last
		last.e.index = i
		k.events.siftDown(i)
		if last.e.index == i {
			k.events.siftUp(i)
		}
	}
}

// Kernel is a discrete-event simulation executive. The zero value is ready
// to use at time zero. Kernel is not safe for concurrent use; each
// simulation owns exactly one goroutine.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap

	// slab batches Event allocations: events are transient but numerous
	// (one per scheduled callback), so handing them out of a chunk cuts
	// allocator round trips ~64x. Events are never recycled — a retained
	// handle stays valid after its event fires — the chunk just amortizes
	// the malloc.
	slab []Event

	// executed counts dispatched (non-canceled) events, for tests and
	// runaway detection.
	executed uint64
}

// NewKernel returns a kernel positioned at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Scheduled reports how many events have been scheduled so far: the
// sequence number the next one gets. While it has not moved, no event
// has been scheduled since the last one, so nothing can fire between
// that event and one scheduled now for the same instant.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, and silently clamping would hide causality
// violations.
func (k *Kernel) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, k.now))
	}
	if len(k.slab) == 0 {
		k.slab = make([]Event, 64)
	}
	e := &k.slab[0]
	k.slab = k.slab[1:]
	e.at, e.seq, e.fn, e.index = t, k.seq, fn, -1
	k.seq++
	k.pushEvent(e)
	return e
}

// After schedules fn to run d from now. Negative d panics via At.
func (k *Kernel) After(d Duration, fn func()) *Event { return k.At(k.now+d, fn) }

// Cancel removes e from the calendar if it has not yet fired. Canceling an
// already-fired or already-canceled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		k.removeEvent(e.index)
	}
	e.fn = nil
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It reports false when the calendar is empty.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.popEvent()
	k.now = e.at
	fn := e.fn
	e.fn = nil
	k.executed++
	fn()
	return true
}

// Run dispatches events until the calendar is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil dispatches events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// Every schedules fn at now+d, then every d thereafter, until the returned
// Ticker is stopped. fn observes the tick time via Kernel.Now.
func (k *Kernel) Every(d Duration, fn func()) *Ticker {
	if d <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{k: k, period: d, fn: fn}
	t.tickFn = t.tick // bind the method value once; rearming reuses it
	t.ev = k.After(d, t.tickFn)
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	k       *Kernel
	period  Duration
	fn      func()
	tickFn  func() // t.tick, bound once — a method value allocates per use
	ev      *Event
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped us
		t.ev = t.k.After(t.period, t.tickFn)
	}
}

// Stop cancels future ticks. Safe to call multiple times and from within
// the tick callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.k.Cancel(t.ev)
}
