package device

import (
	"fmt"

	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/trace"
)

// RAID0 stripes requests across member devices. It matches the paper's
// testbed volume: eight SSDs in RAID0 behind a single block device.
type RAID0 struct {
	k          *sim.Kernel
	name       string
	members    []BlockDevice
	stripeSize int64
	next       int // round-robin start member for successive requests
}

// NewRAID0 assembles members into a striped array with the given stripe
// unit (bytes). Typical stripe units are 64–512 KiB.
func NewRAID0(k *sim.Kernel, name string, members []BlockDevice, stripeSize int64) *RAID0 {
	if len(members) == 0 {
		panic("device: RAID0 with no members")
	}
	if stripeSize <= 0 {
		stripeSize = 256 << 10
	}
	return &RAID0{k: k, name: name, members: members, stripeSize: stripeSize}
}

// PaperArray builds the evaluation platform's storage: eight Intel 520
// SSDs in RAID0 with a 256 KiB stripe.
func PaperArray(k *sim.Kernel, rng *stats.Stream) *RAID0 {
	return PaperArrayWith(k, rng, nil)
}

// PaperArrayWith builds the paper array but lets the caller wrap each
// member as it is assembled — the fault layer uses this to slip Degraded
// throttles in front of individual SSDs. A nil wrap (or a wrap returning
// its argument) leaves the member untouched; member RNG forks are taken
// before wrapping, so wrapped and unwrapped arrays draw identical service
// randomness.
func PaperArrayWith(k *sim.Kernel, rng *stats.Stream, wrap func(i int, m BlockDevice) BlockDevice) *RAID0 {
	members := make([]BlockDevice, 8)
	for i := range members {
		cfg := Intel520Config(fmt.Sprintf("ssd%d", i))
		var m BlockDevice = NewSSD(k, cfg, rng.Fork(cfg.Name))
		if wrap != nil {
			m = wrap(i, m)
		}
		members[i] = m
	}
	return NewRAID0(k, "md0", members, 256<<10)
}

// SetRecorder forwards the decision-trace recorder to every member that
// supports per-request service tracing.
func (a *RAID0) SetRecorder(r *trace.Recorder) {
	for _, m := range a.members {
		if mr, ok := m.(interface{ SetRecorder(*trace.Recorder) }); ok {
			mr.SetRecorder(r)
		}
	}
}

// Name implements BlockDevice.
func (a *RAID0) Name() string { return a.name }

// Members exposes the member devices (read-only use).
func (a *RAID0) Members() []BlockDevice { return a.members }

// CapacityBps implements BlockDevice as the sum of member capacities.
func (a *RAID0) CapacityBps() float64 {
	var sum float64
	for _, m := range a.members {
		sum += m.CapacityBps()
	}
	return sum
}

// QueueLimit implements BlockDevice as the sum of member limits.
func (a *RAID0) QueueLimit() int {
	n := 0
	for _, m := range a.members {
		n += m.QueueLimit()
	}
	return n
}

// Pending implements BlockDevice.
func (a *RAID0) Pending() int {
	n := 0
	for _, m := range a.members {
		n += m.Pending()
	}
	return n
}

// Congested implements BlockDevice: the array is congested when its
// aggregate queue crosses the 7/8 threshold, the same rule Linux applies
// to the md device's own queue.
func (a *RAID0) Congested() bool {
	return a.Pending() >= a.QueueLimit()*CongestedOnNum/CongestedOnDen
}

// Idle implements BlockDevice.
func (a *RAID0) Idle() bool {
	for _, m := range a.members {
		if !m.Idle() {
			return false
		}
	}
	return true
}

// BandwidthBps implements BlockDevice.
func (a *RAID0) BandwidthBps(now sim.Time) float64 {
	var sum float64
	for _, m := range a.members {
		sum += m.BandwidthBps(now)
	}
	return sum
}

// UtilFraction implements BlockDevice as the mean member utilization.
func (a *RAID0) UtilFraction(now sim.Time) float64 {
	var sum float64
	for _, m := range a.members {
		sum += m.UtilFraction(now)
	}
	return sum / float64(len(a.members))
}

// Submit implements BlockDevice: the request is split at stripe-unit
// boundaries round-robin across members; Done fires when the last chunk
// completes.
func (a *RAID0) Submit(r *Request) {
	r.Submitted = a.k.Now()
	nChunks := int((r.Size + a.stripeSize - 1) / a.stripeSize)
	if nChunks <= 1 {
		m := a.members[a.next]
		a.next = (a.next + 1) % len(a.members)
		m.Submit(&Request{
			Op: r.Op, Size: r.Size, Sequential: r.Sequential,
			Owner: r.Owner, Done: r.Done,
		})
		return
	}
	remaining := nChunks
	done := func() {
		remaining--
		if remaining == 0 && r.Done != nil {
			r.Done()
		}
	}
	size := r.Size
	start := a.next
	a.next = (a.next + nChunks) % len(a.members)
	for i := 0; i < nChunks; i++ {
		chunk := a.stripeSize
		if size < chunk {
			chunk = size
		}
		size -= chunk
		m := a.members[(start+i)%len(a.members)]
		m.Submit(&Request{
			Op: r.Op, Size: chunk, Sequential: r.Sequential,
			Owner: r.Owner, Done: done,
		})
	}
}
