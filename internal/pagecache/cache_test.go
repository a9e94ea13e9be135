package pagecache

import (
	"testing"

	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// fixture wires a cache to a real SSD through a block queue.
type fixture struct {
	k     *sim.Kernel
	ssd   *device.SSD
	queue *blkio.Queue
	cache *Cache
}

func mkFixture(cfg Config) *fixture {
	k := sim.NewKernel()
	ssdCfg := device.Intel520Config("ssd0")
	ssdCfg.JitterFrac = 0
	ssdCfg.WriteTailOdds = 0
	ssd := device.NewSSD(k, ssdCfg, stats.NewStream(1, "ssd"))
	q := blkio.NewQueue(k, blkio.Config{Name: "xvda"}, stats.NewStream(2, "q"),
		blkio.LowerFunc(func(r *device.Request) { ssd.Submit(r) }))
	c := New(k, cfg, q, 1)
	return &fixture{k: k, ssd: ssd, queue: q, cache: c}
}

func TestBufferedWriteDirtiesPages(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1 << 18}) // 1 GiB
	returned := false
	f.cache.Write(64<<10, func() { returned = true })
	if f.cache.DirtyPages() != 16 {
		t.Fatalf("DirtyPages = %d, want 16", f.cache.DirtyPages())
	}
	f.k.RunUntil(sim.Millisecond)
	if !returned {
		t.Fatal("buffered write did not return promptly")
	}
	if f.cache.DirtyPages()*PageSize != 64<<10 {
		t.Fatalf("%d dirty pages, want 64 KiB's worth", f.cache.DirtyPages())
	}
	f.cache.Close()
}

func TestBackgroundWritebackStartsAboveRatio(t *testing.T) {
	// 1000 pages, background at 10% = 100 pages.
	f := mkFixture(Config{TotalPages: 1000, DirtyRatio: 0.4, BackgroundRatio: 0.1})
	f.cache.Write(99*PageSize, nil)
	f.k.RunUntil(100 * sim.Millisecond)
	if f.cache.WrittenBackBytes() != 0 {
		t.Fatal("writeback started below background ratio")
	}
	f.cache.Write(50*PageSize, nil)
	f.k.RunUntil(2 * sim.Second)
	if f.cache.WrittenBackBytes() == 0 {
		t.Fatal("writeback never started above background ratio")
	}
	// Background flush stops at the background target, not zero.
	if f.cache.DirtyPages() == 0 {
		t.Fatal("background writeback flushed to zero")
	}
	if f.cache.DirtyPages() > 100 {
		t.Fatalf("dirty pages %d above background target", f.cache.DirtyPages())
	}
	f.cache.Close()
}

func TestDirtyExpireTriggersPeriodicFlush(t *testing.T) {
	f := mkFixture(Config{TotalPages: 100000, DirtyExpire: 10 * sim.Second, WakeInterval: sim.Second})
	f.cache.Write(10*PageSize, nil) // way below background ratio
	f.k.RunUntil(5 * sim.Second)
	if f.cache.WrittenBackBytes() != 0 {
		t.Fatal("expired too early")
	}
	f.k.RunUntil(20 * sim.Second)
	if f.cache.DirtyPages() != 0 {
		t.Fatalf("expired pages not written back: %d", f.cache.DirtyPages())
	}
	f.cache.Close()
}

func TestSyncFlushesEverything(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1 << 18})
	f.cache.Write(8<<20, nil)
	synced := false
	f.cache.Sync(func() { synced = true })
	f.k.RunUntil(10 * sim.Second)
	if !synced {
		t.Fatal("Sync callback never fired")
	}
	if f.cache.DirtyPages() != 0 {
		t.Fatalf("dirty after sync: %d", f.cache.DirtyPages())
	}
	if got := f.cache.WrittenBackBytes(); got != 8<<20 {
		t.Fatalf("wrote back %v bytes, want %v", got, 8<<20)
	}
	f.cache.Close()
}

func TestSyncOnCleanCacheFiresImmediately(t *testing.T) {
	f := mkFixture(Config{})
	fired := false
	f.cache.Sync(func() { fired = true })
	if !fired {
		t.Fatal("Sync on clean cache deferred")
	}
	f.cache.Close()
}

func TestWriterThrottledAtDirtyRatio(t *testing.T) {
	// 1000 pages, hard at 20% = 200 pages.
	f := mkFixture(Config{TotalPages: 1000, DirtyRatio: 0.2, BackgroundRatio: 0.1})
	f.cache.Write(200*PageSize, nil)
	blockedReturned := false
	f.cache.Write(10*PageSize, func() { blockedReturned = true })
	if f.cache.Throttles() != 1 {
		t.Fatalf("Throttles = %d, want 1", f.cache.Throttles())
	}
	// The blocked writer completes once writeback makes room.
	f.k.RunUntil(5 * sim.Second)
	if !blockedReturned {
		t.Fatal("throttled writer never unblocked")
	}
	f.cache.Close()
}

func TestThrottledWriterContributesAfterUnblock(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1000, DirtyRatio: 0.2})
	f.cache.Write(200*PageSize, nil)
	f.cache.Write(50*PageSize, nil) // throttled
	f.k.RunUntil(10 * sim.Second)
	// Every accepted page is still dirty or has been written back.
	if got := f.cache.DirtyPages() + int64(f.cache.WrittenBackBytes())/PageSize; got != 250 {
		t.Fatalf("dirty + written-back pages = %d, want 250", got)
	}
	f.cache.Close()
}

func TestOnDirtyChangeHookObservesTransitions(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1 << 18})
	var transitions []int64
	f.cache.OnDirtyChange = func(nr int64) { transitions = append(transitions, nr) }
	f.cache.Write(PageSize, nil)
	f.cache.Sync(nil)
	f.k.RunUntil(sim.Second)
	if len(transitions) < 2 {
		t.Fatalf("transitions = %v, want dirty then clean", transitions)
	}
	if transitions[0] != 1 {
		t.Fatalf("first transition = %d, want 1", transitions[0])
	}
	if transitions[len(transitions)-1] != 0 {
		t.Fatalf("last transition = %d, want 0", transitions[len(transitions)-1])
	}
	f.cache.Close()
}

func TestFlushNowEquivalentToSyncWithoutCallback(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1 << 18})
	f.cache.Write(4<<20, nil)
	f.cache.FlushNow()
	f.k.RunUntil(5 * sim.Second)
	if f.cache.DirtyPages() != 0 {
		t.Fatalf("FlushNow left %d dirty pages", f.cache.DirtyPages())
	}
	f.cache.Close()
}

func TestWritebackWindowBoundsInFlight(t *testing.T) {
	f := mkFixture(Config{TotalPages: 1 << 20, WritebackWindow: 2, WritebackChunk: 1 << 20})
	f.cache.Write(100<<20, nil)
	f.cache.Sync(nil)
	// Immediately after the sync kick, at most 2 chunks may have been
	// submitted to the block queue.
	if n := f.queue.Submitted(); n > 2 {
		t.Fatalf("%d chunks submitted with window 2", n)
	}
	f.k.RunUntil(30 * sim.Second)
	if f.cache.DirtyPages() != 0 {
		t.Fatalf("sync incomplete: %d pages", f.cache.DirtyPages())
	}
	f.cache.Close()
}
