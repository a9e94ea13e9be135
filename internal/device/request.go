// Package device models physical block storage: SSDs and RAID0
// arrays with service-time, queueing, utilization and congestion behaviour.
// The experiment platform mirrors the paper's testbed: a 960 GB RAID0
// volume striped over eight 120 GB SSDs.
package device

import (
	"fmt"

	"iorchestra/internal/sim"
)

// Op distinguishes reads from writes.
type Op uint8

const (
	// Read transfers data from the device.
	Read Op = iota
	// Write transfers data to the device.
	Write
)

// String names the operation.
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one block I/O request as seen by a physical device.
type Request struct {
	// Op is the transfer direction.
	Op Op
	// Size is the transfer length in bytes.
	Size int64
	// Sequential marks streaming access; sequential transfers enjoy the
	// device's full bandwidth while random ones pay per-IOP costs.
	Sequential bool
	// Owner tags the submitting domain for accounting (0 = host itself).
	Owner int
	// Socket tags the NUMA socket of the submitting process's VCPU; the
	// host's dedicated-I/O-core routing uses it (Sec. 3.3).
	Socket int
	// Stream tags the logical I/O stream (process/file); back-merging in
	// the block layer only combines requests of the same stream, since
	// different streams are not contiguous on disk.
	Stream int
	// Done is invoked at completion time, on the simulation goroutine.
	Done func()

	// Submitted is stamped by the device at submission.
	Submitted sim.Time
}

func (r *Request) String() string {
	return fmt.Sprintf("%v %dB seq=%v dom%d", r.Op, r.Size, r.Sequential, r.Owner)
}

// BlockDevice is the interface the host block layer drives and the
// monitoring module samples.
type BlockDevice interface {
	// Submit enqueues a request; Done fires on completion.
	Submit(r *Request)
	// Name identifies the device.
	Name() string
	// CapacityBps reports the peak sequential bandwidth in bytes/second,
	// the reference for the flush policy's "one tenth of capacity" test.
	CapacityBps() float64
	// QueueLimit reports the host-side request-queue limit (nr_requests).
	QueueLimit() int
	// Pending reports queued plus in-flight requests.
	Pending() int
	// Congested reports whether the device queue has crossed the Linux
	// congestion-on threshold (7/8 of the queue limit).
	Congested() bool
	// BandwidthBps reports the recent transfer rate (trailing window).
	BandwidthBps(now sim.Time) float64
	// UtilFraction reports the busy fraction since the last reset.
	UtilFraction(now sim.Time) float64
	// Idle reports whether the device is entirely quiescent right now.
	Idle() bool
}

// CongestedOn and CongestedOff are the Linux block-layer congestion
// thresholds: avoidance turns on above 7/8 of the queue limit and off
// below 13/16 (Sec. 2 of the paper).
const (
	CongestedOnNum    = 7
	CongestedOnDen    = 8
	CongestedOffNum   = 13
	CongestedOffDen   = 16
	DefaultQueueLimit = 128
)
