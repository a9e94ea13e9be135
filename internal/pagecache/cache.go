// Package pagecache models the guest page cache's write path: buffered
// writes dirty pages, per-BDI flusher threads write them back, writers are
// throttled at the dirty ratio (Linux balance_dirty_pages), and sync()
// flushes everything — the machinery behind the paper's cross-domain
// flush-control policy (Sec. 3.1, Algorithm 1).
package pagecache

import (
	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/sim"
)

// PageSize is the fixed page granularity (bytes).
const PageSize = 4096

// Config parameterizes a cache instance (one per virtual disk / BDI).
type Config struct {
	// TotalPages is the guest's page budget for this cache.
	TotalPages int64
	// DirtyRatio is the hard throttle point: writers block above it
	// (Linux vm.dirty_ratio; the paper sweeps 10–40 %).
	DirtyRatio float64
	// BackgroundRatio starts background writeback (vm.dirty_background_ratio).
	BackgroundRatio float64
	// DirtyExpire writes back pages older than this regardless of count
	// (vm.dirty_expire_centisecs, default 30 s).
	DirtyExpire sim.Duration
	// WakeInterval is the flusher thread period (default 5 s).
	WakeInterval sim.Duration
	// WritebackChunk is the size of each writeback request (default 1 MiB).
	WritebackChunk int64
	// WritebackWindow bounds concurrent writeback requests (default 8).
	WritebackWindow int
}

const (
	// memCopyBps is the in-memory buffered-write speed.
	memCopyBps = 8e9
	// congestionBackoff is the flusher's congestion_wait sleep when the
	// block queue has congestion avoidance engaged (Linux: 100 ms).
	congestionBackoff = 100 * sim.Millisecond
)

func (c *Config) fillDefaults() {
	if c.TotalPages <= 0 {
		c.TotalPages = (1 << 30) / PageSize // 1 GiB default
	}
	if c.DirtyRatio <= 0 {
		c.DirtyRatio = 0.20
	}
	if c.BackgroundRatio <= 0 {
		c.BackgroundRatio = c.DirtyRatio / 2
	}
	if c.DirtyExpire <= 0 {
		c.DirtyExpire = 30 * sim.Second
	}
	if c.WakeInterval <= 0 {
		c.WakeInterval = 5 * sim.Second
	}
	if c.WritebackChunk <= 0 {
		c.WritebackChunk = 1 << 20
	}
	if c.WritebackWindow <= 0 {
		c.WritebackWindow = 8
	}
}

// Cache is the dirty-page side of one BDI.
type Cache struct {
	k     *sim.Kernel
	cfg   Config
	queue *blkio.Queue
	owner int

	dirtyPages  int64
	oldestDirty sim.Time
	inFlight    int   // writeback requests outstanding
	wbTarget    int64 // flush until dirtyPages <= wbTarget (-1: not flushing)

	hardPages int64 // precomputed hardLimit
	bgPages   int64 // precomputed bgLimit

	throttledW   *sim.WaitQueue
	syncWaits    []func()
	timer        *sim.Event // flusher wakeup, armed only while dirty
	backoffArmed bool       // congestion_wait backoff pending
	closed       bool

	// OnDirtyChange, when set, observes every dirty-count change — the
	// IOrchestra guest driver uses it to maintain has_dirty_pages in the
	// system store.
	OnDirtyChange func(nrPages int64)

	// Stats.
	writtenBack float64 // bytes flushed to the device
	throttles   uint64
}

// New builds a cache flushing through q on behalf of owner (domain id,
// stamped on writeback requests for accounting).
func New(k *sim.Kernel, cfg Config, q *blkio.Queue, owner int) *Cache {
	cfg.fillDefaults()
	c := &Cache{
		k:          k,
		cfg:        cfg,
		queue:      q,
		owner:      owner,
		wbTarget:   -1,
		hardPages:  int64(float64(cfg.TotalPages) * cfg.DirtyRatio),
		bgPages:    int64(float64(cfg.TotalPages) * cfg.BackgroundRatio),
		throttledW: sim.NewWaitQueue(k),
	}
	return c
}

// Close stops the flusher thread.
func (c *Cache) Close() {
	c.closed = true
	if c.timer != nil {
		c.k.Cancel(c.timer)
		c.timer = nil
	}
}

// armTimer schedules the next flusher wakeup. The timer exists only while
// dirty pages do, so an idle cache contributes no simulation events and a
// drained simulation terminates.
func (c *Cache) armTimer() {
	if c.timer != nil || c.closed || c.dirtyPages == 0 {
		return
	}
	c.timer = c.k.After(c.cfg.WakeInterval, func() {
		c.timer = nil
		c.periodic()
		c.armTimer()
	})
}

// DirtyPages reports the current dirty-page count (the bdi_writeback "nr"
// Algorithm 1 reads).
func (c *Cache) DirtyPages() int64 { return c.dirtyPages }

// Throttles reports how many writer blocks occurred at the dirty ratio.
func (c *Cache) Throttles() uint64 { return c.throttles }

// WrittenBackBytes reports bytes flushed to storage.
func (c *Cache) WrittenBackBytes() float64 { return c.writtenBack }

// hardLimit and bgLimit in pages, fixed at construction (they sit on the
// per-write path).
func (c *Cache) hardLimit() int64 { return c.hardPages }
func (c *Cache) bgLimit() int64   { return c.bgPages }

// Write buffers size bytes; done fires when the write call returns to the
// application (after the memory copy, or later if the writer was
// throttled at the dirty ratio). The data itself reaches storage
// asynchronously via writeback.
func (c *Cache) Write(size int64, done func()) {
	c.tryWrite(size, done)
}

// WriteAt buffers like Write and reports the virtual time at which the
// write call returns to the application, with ok=false (and nothing
// buffered) when the writer would be throttled at the dirty ratio — the
// caller must fall back to Write and its callback then. Nothing the
// model does between buffering and the memory copy completing can change
// the returned instant, so answering inline is exact, and a metric-only
// writer costs no calendar event — at scale those per-write wakeups are
// the most numerous events in the simulation.
func (c *Cache) WriteAt(size int64) (at sim.Time, ok bool) {
	if c.dirtyPages >= c.hardLimit() {
		return 0, false
	}
	return c.k.Now() + c.buffer(size), true
}

func (c *Cache) tryWrite(size int64, done func()) {
	if c.dirtyPages >= c.hardLimit() {
		// balance_dirty_pages: writer blocks and contributes nothing
		// until writeback makes room.
		c.throttles++
		c.kickWriteback(c.bgLimit())
		c.throttledW.Wait(func() { c.tryWrite(size, done) })
		return
	}
	copyTime := c.buffer(size)
	if done != nil {
		c.k.After(copyTime, done)
	}
}

// buffer dirties the pages of one accepted (un-throttled) write and
// returns the memory-copy time the write call spends before returning.
func (c *Cache) buffer(size int64) sim.Duration {
	pages := (size + PageSize - 1) / PageSize
	if c.dirtyPages == 0 {
		c.oldestDirty = c.k.Now()
	}
	c.setDirty(c.dirtyPages + pages)
	copyTime := sim.Duration(float64(size) / memCopyBps * float64(sim.Second))
	if c.dirtyPages >= c.bgLimit() {
		c.kickWriteback(c.bgLimit())
	}
	return copyTime
}

func (c *Cache) setDirty(nr int64) {
	if nr < 0 {
		nr = 0
	}
	changed := nr != c.dirtyPages
	c.dirtyPages = nr
	if nr == 0 && c.timer != nil {
		c.k.Cancel(c.timer)
		c.timer = nil
	}
	if nr > 0 {
		c.armTimer()
	}
	if changed && c.OnDirtyChange != nil {
		c.OnDirtyChange(nr)
	}
}

// periodic is the flusher-thread wakeup: background writeback (down to
// the background target) when the ratio is exceeded, full writeback when
// the oldest dirty page has expired.
func (c *Cache) periodic() {
	if c.dirtyPages == 0 {
		return
	}
	if c.k.Now()-c.oldestDirty >= c.cfg.DirtyExpire {
		c.kickWriteback(0)
		return
	}
	if c.dirtyPages >= c.bgLimit() {
		c.kickWriteback(c.bgLimit())
	}
}

// Sync flushes all dirty pages; done fires when the cache is clean — the
// sync() system call Algorithm 1's flush_now notification triggers.
func (c *Cache) Sync(done func()) {
	if c.dirtyPages == 0 && c.inFlight == 0 {
		if done != nil {
			done()
		}
		return
	}
	if done != nil {
		c.syncWaits = append(c.syncWaits, done)
	}
	c.kickWriteback(0)
}

// FlushNow starts a full writeback without a completion callback.
func (c *Cache) FlushNow() { c.Sync(nil) }

// kickWriteback lowers the flush target and pumps writeback requests.
func (c *Cache) kickWriteback(target int64) {
	if c.wbTarget < 0 || target < c.wbTarget {
		c.wbTarget = target
	}
	c.pumpWriteback()
}

func (c *Cache) pumpWriteback() {
	if c.wbTarget < 0 {
		return
	}
	// congestion_wait semantics: when the queue's congestion-avoidance
	// scheme is engaged, the flusher backs off instead of piling on —
	// the very sleep that false triggers make so expensive (Sec. 2).
	if c.queue.AvoidanceEngaged() {
		if !c.backoffArmed {
			c.backoffArmed = true
			c.k.After(congestionBackoff, func() {
				c.backoffArmed = false
				c.pumpWriteback()
			})
		}
		return
	}
	// Pages already in flight count toward the target so we do not
	// over-issue.
	for c.inFlight < c.cfg.WritebackWindow {
		inFlightPages := int64(c.inFlight) * (c.cfg.WritebackChunk / PageSize)
		remaining := c.dirtyPages - inFlightPages - c.wbTarget
		if remaining <= 0 {
			break
		}
		chunkPages := c.cfg.WritebackChunk / PageSize
		if remaining < chunkPages {
			chunkPages = remaining
		}
		c.issue(chunkPages)
	}
	if c.inFlight == 0 && c.dirtyPages <= c.wbTarget {
		// Flush round complete (all the way to clean for sync, or down to
		// the background target otherwise).
		if c.dirtyPages == 0 {
			c.finishFlush()
		} else {
			c.wbTarget = -1
		}
	}
}

func (c *Cache) issue(pages int64) {
	c.inFlight++
	size := pages * PageSize
	c.queue.Submit(&device.Request{
		Op:         device.Write,
		Size:       size,
		Sequential: true, // writeback is clustered/sorted
		Owner:      c.owner,
		Done: func() {
			c.inFlight--
			c.setDirty(c.dirtyPages - pages)
			c.writtenBack += float64(size)
			if c.dirtyPages > 0 {
				// Approximate age reset: remaining dirty data is newer.
				c.oldestDirty = c.k.Now() - c.cfg.DirtyExpire/2
			}
			// Room below the hard limit: wake one throttled writer per
			// completion to avoid a stampede.
			if c.dirtyPages < c.hardLimit() {
				c.throttledW.WakeOne(100 * sim.Microsecond)
			}
			c.pumpWriteback()
		},
	})
}

func (c *Cache) finishFlush() {
	c.wbTarget = -1
	waits := c.syncWaits
	c.syncWaits = nil
	for _, fn := range waits {
		fn()
	}
}
