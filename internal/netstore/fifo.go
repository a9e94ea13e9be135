package netstore

// fifo is a slice-backed queue that keeps its backing array across
// drains. Popping by q = q[1:] forfeits the popped capacity, so a queue
// that is filled and emptied once per operation regrows on every append;
// here a pop advances head, a drained queue rewinds to the start of its
// array, and a push that finds the array full slides the live elements
// down over the popped room when that room is at least half of it (so
// the copying stays amortized O(1) under a standing backlog).
//
// Elements are addressed by absolute index — the number of pushes before
// them — so an index kept outside the queue survives pops and slides.
// The zero value is an empty queue. Not safe for concurrent use.
type fifo[T any] struct {
	buf  []T
	head int // buf[head:] are the live elements
	base int // absolute index of buf[head]
}

// hotpath
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends v and returns its absolute index.
//
// hotpath
func (q *fifo[T]) push(v T) int {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
	return q.base + q.len() - 1
}

// at returns the live element pushed as number abs, or nil once it has
// been popped. The pointer is valid until the next push or pop.
//
// hotpath
func (q *fifo[T]) at(abs int) *T {
	if abs < q.base || abs >= q.base+q.len() {
		return nil
	}
	return &q.buf[q.head+abs-q.base]
}

// pop removes and returns the oldest element; the queue must not be
// empty.
//
// hotpath
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.base++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
