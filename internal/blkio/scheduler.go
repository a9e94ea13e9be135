package blkio

import (
	"iorchestra/internal/device"
	"iorchestra/internal/sim"
)

// NOOP is a FIFO elevator with back-merging of sequential same-direction
// requests — the scheduler virtualized guests typically run.
type NOOP struct {
	q    sim.FIFO[*device.Request]
	tail int // absolute index of the last Add: the merge candidate while queued
}

// NewNOOP returns an empty NOOP elevator.
func NewNOOP() *NOOP { return &NOOP{} }

// Merge attempts to absorb r into the queue tail (back merge): both must
// be sequential, same direction, and the combined size under maxMerge. It
// reports whether the merge happened, in which case r's Done is chained
// onto the absorbing request.
func (s *NOOP) Merge(r *device.Request, maxMerge int64) bool {
	p := s.q.At(s.tail)
	if p == nil {
		return false
	}
	tail := *p
	if !tail.Sequential || !r.Sequential || tail.Op != r.Op ||
		tail.Owner != r.Owner || tail.Stream != r.Stream {
		return false
	}
	if tail.Size+r.Size > maxMerge {
		return false
	}
	tail.Size += r.Size
	prev := tail.Done
	rd := r.Done
	tail.Done = func() {
		if prev != nil {
			prev()
		}
		if rd != nil {
			rd()
		}
	}
	return true
}

// Add enqueues r.
func (s *NOOP) Add(r *device.Request) { s.tail = s.q.Push(r) }

// Next pops the request to dispatch now, or nil when empty.
func (s *NOOP) Next() *device.Request {
	r, _ := s.q.Pop()
	return r
}

// Len reports queued requests.
func (s *NOOP) Len() int { return s.q.Len() }
