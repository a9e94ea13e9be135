package guest

import (
	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
)

// VDisk is one virtual disk: a filesystem-facing surface combining a page
// cache (buffered writes) with a block-layer queue dispatching to the
// paravirtual frontend the host supplied.
type VDisk struct {
	name        string
	g           *Guest
	Queue       *blkio.Queue
	Cache       *pagecache.Cache
	maxTransfer int64

	writeLat *metrics.Histogram // application-visible write-return latency
}

// DiskConfig wires a virtual disk.
type DiskConfig struct {
	Name string
	// QueueConfig configures the block layer; the Controller field is how
	// policy variants plug in.
	QueueConfig blkio.Config
	// CacheConfig configures the dirty-page machinery; TotalPages
	// defaults to the guest's memory.
	CacheConfig pagecache.Config
	// MaxTransfer splits application reads larger than this into
	// concurrently submitted block requests, the way the kernel's
	// readahead and max_sectors splitting pipeline a streaming read
	// through the request queue. Zero disables splitting.
	MaxTransfer int64
}

// AddDisk attaches a virtual disk whose dispatches go to lower (the
// frontend driver created by the host). It returns the new disk.
func (g *Guest) AddDisk(cfg DiskConfig, lower blkio.Lower) *VDisk {
	if cfg.Name == "" {
		cfg.Name = "xvda"
	}
	if cfg.QueueConfig.Name == "" {
		cfg.QueueConfig.Name = cfg.Name
	}
	if cfg.CacheConfig.TotalPages <= 0 {
		cfg.CacheConfig.TotalPages = g.cfg.MemBytes / pagecache.PageSize
	}
	q := blkio.NewQueue(g.k, cfg.QueueConfig, g.rng.Fork("blkio/"+cfg.Name), lower)
	c := pagecache.New(g.k, cfg.CacheConfig, q, int(g.cfg.ID))
	v := &VDisk{
		name:        cfg.Name,
		g:           g,
		Queue:       q,
		Cache:       c,
		maxTransfer: cfg.MaxTransfer,
		writeLat:    metrics.NewHistogram(),
	}
	g.vdisks[cfg.Name] = v
	g.names = append(g.names, cfg.Name)
	return v
}

// Disk returns a disk by name (nil if absent).
func (g *Guest) Disk(name string) *VDisk { return g.vdisks[name] }

// Disks returns all virtual disks in attach order.
func (g *Guest) Disks() []*VDisk {
	out := make([]*VDisk, 0, len(g.names))
	for _, n := range g.names {
		out = append(out, g.vdisks[n])
	}
	return out
}

// Name reports the disk name.
func (v *VDisk) Name() string { return v.name }

// WriteLatency exposes the application-visible write-return histogram.
func (v *VDisk) WriteLatency() *metrics.Histogram { return v.writeLat }

// Read issues a read of size bytes on behalf of p; done fires when data
// is available. A CacheHitFrac fraction of reads is served from memory.
func (v *VDisk) Read(p *Process, size int64, sequential bool, done func()) {
	if done == nil {
		done = func() {}
	}
	if v.g.cfg.CacheHitFrac > 0 && v.g.rng.Bool(v.g.cfg.CacheHitFrac) {
		v.g.k.After(5*sim.Microsecond, done)
		return
	}
	socket, stream := 0, 0
	if p != nil {
		socket = p.Socket()
		stream = p.ID()
	}
	if v.maxTransfer > 0 && size > v.maxTransfer {
		// Readahead-style split: all chunks enter the request queue at
		// once and the read completes when the last chunk does.
		n := int((size + v.maxTransfer - 1) / v.maxTransfer)
		remaining := n
		onChunk := func() {
			remaining--
			if remaining == 0 {
				done()
			}
		}
		left := size
		for i := 0; i < n; i++ {
			chunk := v.maxTransfer
			if left < chunk {
				chunk = left
			}
			left -= chunk
			v.Queue.Submit(&device.Request{
				Op: device.Read, Size: chunk, Sequential: sequential,
				Owner: int(v.g.cfg.ID), Socket: socket, Stream: stream,
				Done: onChunk,
			})
		}
		return
	}
	v.Queue.Submit(&device.Request{
		Op:         device.Read,
		Size:       size,
		Sequential: sequential,
		Owner:      int(v.g.cfg.ID),
		Socket:     socket,
		Stream:     stream,
		Done:       done,
	})
}

// Write issues a buffered write; done fires when the write call returns
// to the application (memory-speed unless the writer is throttled at the
// dirty ratio).
func (v *VDisk) Write(p *Process, size int64, done func()) {
	start := v.g.k.Now()
	_ = p
	if done == nil {
		// Metric-only write: the cache reports the virtual return time
		// inline instead of scheduling a wakeup just to record it. Only a
		// throttled writer needs the callback machinery.
		if at, ok := v.Cache.WriteAt(size); ok {
			v.writeLat.Record(at - start)
			return
		}
	}
	v.Cache.Write(size, func() {
		v.writeLat.Record(v.g.k.Now() - start)
		if done != nil {
			done()
		}
	})
}
