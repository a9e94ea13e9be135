package sim

// WaitQueue models a set of sleeping processes, in the spirit of a kernel
// wait queue: continuations park in FIFO order and are resumed by WakeOne
// or WakeAll. Resumption happens through the kernel calendar so that woken
// continuations run after the waker finishes, never reentrantly.
type WaitQueue struct {
	k       *Kernel
	waiters []func()
}

// NewWaitQueue returns an empty wait queue bound to k.
func NewWaitQueue(k *Kernel) *WaitQueue { return &WaitQueue{k: k} }

// Len reports the number of parked continuations.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Wait parks fn until a wake-up.
func (q *WaitQueue) Wait(fn func()) {
	if fn == nil {
		panic("sim: WaitQueue.Wait with nil fn")
	}
	q.waiters = append(q.waiters, fn)
}

// WakeOne resumes the oldest waiter after delay, preserving FIFO order.
// It reports whether a waiter was present.
func (q *WaitQueue) WakeOne(delay Duration) bool {
	if len(q.waiters) == 0 {
		return false
	}
	fn := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters[len(q.waiters)-1] = nil
	q.waiters = q.waiters[:len(q.waiters)-1]
	q.k.After(delay, fn)
	return true
}

// WakeAll resumes every waiter. Each waiter i is resumed at now + delay +
// i*stagger; the paper's congestion-control policy wakes VMs "in a FIFO
// order and interleaved with a random time interval", which callers express
// by passing per-call delays instead.
func (q *WaitQueue) WakeAll(delay, stagger Duration) int {
	n := len(q.waiters)
	for i, fn := range q.waiters {
		q.k.After(delay+Duration(i)*stagger, fn)
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
	return n
}

// FIFO is a bounded queue of arbitrary items with occupancy accounting,
// used as a building block for request queues. A zero capacity means
// unbounded.
type FIFO[T any] struct {
	items []T
	cap   int
}

// NewFIFO returns a FIFO with the given capacity (0 = unbounded).
func NewFIFO[T any](capacity int) *FIFO[T] { return &FIFO[T]{cap: capacity} }

// Len reports current occupancy.
func (f *FIFO[T]) Len() int { return len(f.items) }

// Full reports whether the queue is at capacity.
func (f *FIFO[T]) Full() bool { return f.cap > 0 && len(f.items) >= f.cap }

// Push appends an item, reporting false when the queue is full.
func (f *FIFO[T]) Push(item T) bool {
	if f.Full() {
		return false
	}
	f.items = append(f.items, item)
	return true
}

// Pop removes and returns the oldest item. ok is false when empty.
func (f *FIFO[T]) Pop() (item T, ok bool) {
	if len(f.items) == 0 {
		return item, false
	}
	item = f.items[0]
	var zero T
	copy(f.items, f.items[1:])
	f.items[len(f.items)-1] = zero
	f.items = f.items[:len(f.items)-1]
	return item, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO[T]) Peek() (item T, ok bool) {
	if len(f.items) == 0 {
		return item, false
	}
	return f.items[0], true
}

// Drain removes and returns all items in order.
func (f *FIFO[T]) Drain() []T {
	out := f.items
	f.items = nil
	return out
}
