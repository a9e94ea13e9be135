package device

import (
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/trace"
)

// SSDConfig parameterizes a solid-state device model.
type SSDConfig struct {
	Name string
	// SeqReadBps / SeqWriteBps are peak sequential bandwidths.
	SeqReadBps  float64
	SeqWriteBps float64
	// RandReadIOPS bounds small random reads.
	RandReadIOPS float64
	// InternalParallelism is the number of requests serviced concurrently
	// (channels/planes); further requests queue.
	InternalParallelism int
	// QueueLimit is nr_requests for the host-side queue (default 128).
	QueueLimit int
	// JitterFrac adds a uniform ±fraction to each service time so latency
	// distributions have realistic spread (e.g. 0.15).
	JitterFrac float64
	// WriteVariability adds occasional long-tail writes (GC pauses): with
	// probability 1/WriteTailOdds a write takes WriteTailFactor times
	// longer. Zero disables.
	WriteTailOdds   int
	WriteTailFactor float64
}

const (
	// randWriteIOPS bounds small random writes.
	randWriteIOPS = 6000
	// accessLatency is the fixed per-request latency floor.
	accessLatency = 60 * sim.Microsecond
	// streamSwitchPenalty is added to a sequential request whose
	// (owner, stream) differs from the previous one serviced: on
	// file-backed virtual disks, interleaved "sequential" streams from
	// many VMs degenerate into scattered host I/O (extent allocation,
	// journal commits, stripe misalignment). Coordinated flushing keeps
	// streams contiguous and avoids this cost — the physical basis of
	// Fig. 8's gains. Reads pay a quarter of the penalty.
	streamSwitchPenalty = 1500 * sim.Microsecond
)

// Intel520Config models one of the paper's 120 GB Intel 520 SSDs.
func Intel520Config(name string) SSDConfig {
	return SSDConfig{
		Name: name,
		// Effective rates, not spec-sheet rates: the guests' virtual
		// disks are files on the host filesystem (nested-filesystem
		// overheads, Le et al. FAST '12), writes are incompressible, and
		// the md layer adds its own costs. The paper's Sec. 2 test (16
		// streams sustaining ~100 MB/s aggregate with ~200 ms per-MiB
		// latencies) pins the effective array throughput at a small
		// fraction of the devices' rated speed.
		SeqReadBps:   120e6,
		SeqWriteBps:  60e6,
		RandReadIOPS: 12000,
		// Two concurrent commands per device: enough for NCQ overlap,
		// low enough that large writes visibly delay reads on the same
		// member — the interference channel the flush policies manage.
		InternalParallelism: 2,
		QueueLimit:          DefaultQueueLimit,
		JitterFrac:          0.15,
		WriteTailOdds:       400,
		WriteTailFactor:     12,
	}
}

// SSD is a flash device with internal parallelism and a bounded host queue.
type SSD struct {
	k   *sim.Kernel
	cfg SSDConfig
	rng *stats.Stream

	queue    sim.FIFO[*Request]
	inflight int
	// Last sequential stream serviced, for switch-penalty accounting.
	lastOwner, lastStream int
	haveLast              bool

	util metrics.Utilization
	bw   *metrics.WindowRate

	// completed and bytesMoved are lifetime counters.
	completed  uint64
	bytesMoved float64
	latency    *metrics.Histogram

	// rec, when set, receives a dev.service record per completion with
	// the device-level service latency (submit at device → finish).
	rec *trace.Recorder
}

// NewSSD builds an SSD from cfg, drawing service jitter from rng.
func NewSSD(k *sim.Kernel, cfg SSDConfig, rng *stats.Stream) *SSD {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.InternalParallelism <= 0 {
		cfg.InternalParallelism = 1
	}
	return &SSD{
		k:       k,
		cfg:     cfg,
		rng:     rng,
		bw:      metrics.NewWindowRate(100*sim.Millisecond, 512),
		latency: metrics.NewHistogram(),
	}
}

// SetRecorder mirrors each completion into the decision-trace recorder.
func (d *SSD) SetRecorder(r *trace.Recorder) { d.rec = r }

// Name implements BlockDevice.
func (d *SSD) Name() string { return d.cfg.Name }

// CapacityBps implements BlockDevice, reporting peak sequential read
// bandwidth as the reference capacity.
func (d *SSD) CapacityBps() float64 { return d.cfg.SeqReadBps }

// QueueLimit implements BlockDevice.
func (d *SSD) QueueLimit() int { return d.cfg.QueueLimit }

// Pending implements BlockDevice.
func (d *SSD) Pending() int { return d.queue.Len() + d.inflight }

// Congested implements BlockDevice.
func (d *SSD) Congested() bool {
	return d.Pending() >= d.cfg.QueueLimit*CongestedOnNum/CongestedOnDen
}

// Idle implements BlockDevice.
func (d *SSD) Idle() bool { return d.Pending() == 0 }

// BandwidthBps implements BlockDevice.
func (d *SSD) BandwidthBps(now sim.Time) float64 { return d.bw.Rate(now) }

// UtilFraction implements BlockDevice.
func (d *SSD) UtilFraction(now sim.Time) float64 { return d.util.Fraction(now) }

// Completed reports the number of finished requests.
func (d *SSD) Completed() uint64 { return d.completed }

// BytesMoved reports lifetime transferred bytes.
func (d *SSD) BytesMoved() float64 { return d.bytesMoved }

// ServiceLatency exposes the device-level service-time histogram.
func (d *SSD) ServiceLatency() *metrics.Histogram { return d.latency }

// Submit implements BlockDevice.
func (d *SSD) Submit(r *Request) {
	r.Submitted = d.k.Now()
	if d.inflight < d.cfg.InternalParallelism {
		d.start(r)
		return
	}
	d.queue.Push(r)
}

func (d *SSD) start(r *Request) {
	d.inflight++
	d.util.SetBusy(d.k.Now(), true)
	svc := d.serviceTime(r)
	if r.Sequential {
		if d.haveLast && (d.lastOwner != r.Owner || d.lastStream != r.Stream) {
			p := streamSwitchPenalty
			if r.Op == Read {
				p /= 4
			}
			svc += p
		}
		d.haveLast = true
		d.lastOwner, d.lastStream = r.Owner, r.Stream
	}
	d.k.After(svc, func() { d.finish(r) })
}

func (d *SSD) finish(r *Request) {
	now := d.k.Now()
	d.inflight--
	d.completed++
	d.bytesMoved += float64(r.Size)
	d.bw.Add(now, float64(r.Size))
	d.latency.Record(now - r.Submitted)
	if d.rec != nil {
		d.rec.Record(trace.Record{
			Kind: trace.KindDevService, Dom: r.Owner, Device: d.cfg.Name,
			Write: r.Op == Write, Size: r.Size, Latency: now - r.Submitted,
		})
	}
	if next, ok := d.queue.Pop(); ok {
		d.start(next)
	} else if d.inflight == 0 {
		d.util.SetBusy(now, false)
	}
	if r.Done != nil {
		r.Done()
	}
}

// serviceTime computes the device-side latency of one request: the fixed
// access cost plus transfer time at the applicable bandwidth, with jitter
// and occasional write tails (flash GC).
func (d *SSD) serviceTime(r *Request) sim.Duration {
	var bps float64
	if r.Sequential {
		if r.Op == Read {
			bps = d.cfg.SeqReadBps
		} else {
			bps = d.cfg.SeqWriteBps
		}
	} else {
		// Random accesses are limited by IOPS for small requests and by
		// bandwidth for large ones; take the slower of the two.
		var iops float64
		if r.Op == Read {
			iops, bps = d.cfg.RandReadIOPS, d.cfg.SeqReadBps
		} else {
			iops, bps = randWriteIOPS, d.cfg.SeqWriteBps
		}
		iopsBps := iops * float64(r.Size)
		if iopsBps < bps {
			bps = iopsBps
		}
	}
	if bps <= 0 {
		bps = 1
	}
	t := float64(accessLatency) + float64(r.Size)/bps*float64(sim.Second)
	if d.cfg.JitterFrac > 0 && d.rng != nil {
		t *= 1 + d.cfg.JitterFrac*(2*d.rng.Float64()-1)
	}
	if r.Op == Write && d.cfg.WriteTailOdds > 0 && d.rng != nil &&
		d.rng.Intn(d.cfg.WriteTailOdds) == 0 {
		t *= d.cfg.WriteTailFactor
	}
	return sim.Duration(t)
}
