package sim

// WaitQueue models a set of sleeping processes, in the spirit of a kernel
// wait queue: continuations park in FIFO order and are resumed by
// WakeOne. Resumption happens through the kernel calendar so that woken
// continuations run after the waker finishes, never reentrantly.
type WaitQueue struct {
	k       *Kernel
	waiters FIFO[func()]
}

// NewWaitQueue returns an empty wait queue bound to k.
func NewWaitQueue(k *Kernel) *WaitQueue { return &WaitQueue{k: k} }

// Len reports the number of parked continuations.
func (q *WaitQueue) Len() int { return q.waiters.Len() }

// Wait parks fn until a wake-up.
func (q *WaitQueue) Wait(fn func()) {
	if fn == nil {
		panic("sim: WaitQueue.Wait with nil fn")
	}
	q.waiters.Push(fn)
}

// WakeOne resumes the oldest waiter after delay, preserving FIFO order.
// It reports whether a waiter was present.
func (q *WaitQueue) WakeOne(delay Duration) bool {
	fn, ok := q.waiters.Pop()
	if ok {
		q.k.After(delay, fn)
	}
	return ok
}

// FIFO is a first-in first-out queue with the contract the package doc
// states: amortised O(1), absolute indices, nothing retained after a pop.
// The zero value is an empty queue. Not safe for concurrent use.
type FIFO[T any] struct {
	buf  []T
	head int // buf[head:] are the live elements
	base int // absolute index of buf[head]
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v and returns its absolute index.
func (q *FIFO[T]) Push(v T) int {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
	return q.base + q.Len() - 1
}

// Base is the absolute index of the oldest element: the live ones are
// Base() through Base()+Len()-1.
func (q *FIFO[T]) Base() int { return q.base }

// At returns the live element pushed as number abs, or nil once it has
// been popped. The pointer is valid until the next push or pop.
func (q *FIFO[T]) At(abs int) *T {
	if abs < q.base || abs >= q.base+q.Len() {
		return nil
	}
	return &q.buf[q.head+abs-q.base]
}

// Peek returns the oldest element without removing it; ok is false when
// the queue is empty.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the oldest element; ok is false when the queue
// is empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.base++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
