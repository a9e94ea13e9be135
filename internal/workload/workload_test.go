package workload

import (
	"testing"

	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// testGuest builds a guest with one disk over a fast fake device.
func testGuest(k *sim.Kernel, vcpus int, delay sim.Duration) (*guest.Guest, *guest.VDisk) {
	g, d, _ := testGuestReads(k, vcpus, delay)
	return g, d
}

// testGuestReads is testGuest that also counts the read requests its
// disk's queue dispatches to the device.
func testGuestReads(k *sim.Kernel, vcpus int, delay sim.Duration) (*guest.Guest, *guest.VDisk, *int) {
	g := guest.New(k, guest.Config{ID: 1, VCPUs: vcpus, MemBytes: 4 << 30}, stats.NewStream(1, "g"))
	reads := new(int)
	d := g.AddDisk(guest.DiskConfig{}, blkio.LowerFunc(func(r *device.Request) {
		if r.Op == device.Read {
			*reads++
		}
		k.After(delay, r.Done)
	}))
	return g, d, reads
}

func TestClosedLoopKeepsNInFlight(t *testing.T) {
	k := sim.NewKernel()
	inFlight, maxInFlight := 0, 0
	op := func(done func()) {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		k.After(sim.Millisecond, func() { inFlight--; done() })
	}
	gen := NewClosedLoop(k, 5, 0, op, stats.NewStream(2, "cl"))
	gen.Start()
	k.At(50*sim.Millisecond, gen.Stop)
	k.RunUntil(60 * sim.Millisecond)
	if maxInFlight != 5 {
		t.Fatalf("maxInFlight = %d, want 5", maxInFlight)
	}
	if gen.Recorder().Completed() < 200 {
		t.Fatalf("completed = %d, want ~250", gen.Recorder().Completed())
	}
	if gen.Recorder().Latency.Count() == 0 {
		t.Fatal("no latency recorded")
	}
}

func TestClosedLoopThinkTimeSlowsRate(t *testing.T) {
	k := sim.NewKernel()
	op := func(done func()) { k.After(sim.Microsecond, done) }
	gen := NewClosedLoop(k, 1, 10*sim.Millisecond, op, stats.NewStream(3, "cl"))
	gen.Start()
	k.At(sim.Second, gen.Stop)
	k.RunUntil(1100 * sim.Millisecond)
	// ~1s / 10ms think ≈ 100 ops.
	got := gen.Recorder().Completed()
	if got < 50 || got > 200 {
		t.Fatalf("completed = %d, want ~100", got)
	}
}

func TestOpenLoopRateAndLimit(t *testing.T) {
	k := sim.NewKernel()
	op := func(done func()) { k.After(sim.Microsecond, done) }
	gen := NewOpenLoop(k, 1000, 500, op, stats.NewStream(4, "ol"))
	gen.Start()
	k.Run()
	if gen.Recorder().Started() != 500 {
		t.Fatalf("started = %d, want limit 500", gen.Recorder().Started())
	}
	// 500 ops at 1000/s ≈ 0.5s elapsed.
	if k.Now() < 300*sim.Millisecond || k.Now() > 900*sim.Millisecond {
		t.Fatalf("elapsed %v, want ~0.5s", k.Now())
	}
}

func TestOpenLoopIssuesDespiteSlowOps(t *testing.T) {
	k := sim.NewKernel()
	started := 0
	op := func(done func()) { started++; k.After(sim.Hour, done) } // never completes in window
	gen := NewOpenLoop(k, 100, 0, op, stats.NewStream(5, "ol"))
	gen.Start()
	k.RunUntil(sim.Second)
	gen.Stop()
	if started < 60 || started > 150 {
		t.Fatalf("open loop issued %d in 1s at 100/s", started)
	}
}

func TestBurstyRespectsAverageAndBursts(t *testing.T) {
	k := sim.NewKernel()
	var times []sim.Time
	op := func(done func()) {
		times = append(times, k.Now())
		k.After(sim.Microsecond, done)
	}
	// 1000/s average, 50ms bursts each 500ms period.
	gen := NewBursty(k, 1000, 50*sim.Millisecond, 500*sim.Millisecond, 0, op, stats.NewStream(6, "b"))
	gen.Start()
	k.RunUntil(2 * sim.Second)
	gen.Stop()
	total := len(times)
	if total < 1400 || total > 2600 {
		t.Fatalf("issued %d in 2s at 1000/s avg", total)
	}
	// Count ops inside the first burst window vs the first quiet window.
	inBurst, inQuiet := 0, 0
	for _, tm := range times {
		switch {
		case tm < 50*sim.Millisecond:
			inBurst++
		case tm >= 50*sim.Millisecond && tm < 500*sim.Millisecond:
			inQuiet++
		}
	}
	burstRate := float64(inBurst) / 0.05
	quietRate := float64(inQuiet) / 0.45
	if burstRate < 4*quietRate {
		t.Fatalf("burst rate %v not ≫ quiet rate %v", burstRate, quietRate)
	}
}

func TestBurstyLimitControlsTotal(t *testing.T) {
	k := sim.NewKernel()
	op := func(done func()) { k.After(sim.Microsecond, done) }
	gen := NewBursty(k, 1000, 50*sim.Millisecond, 200*sim.Millisecond, 300, op, stats.NewStream(7, "b"))
	gen.Start()
	k.RunUntil(10 * sim.Second)
	if got := gen.Recorder().Started(); got != 300 {
		t.Fatalf("started = %d, want exactly 300", got)
	}
}

func TestFSPersonalityMixesReadsAndWrites(t *testing.T) {
	k := sim.NewKernel()
	g, d, reads := testGuestReads(k, 2, 100*sim.Microsecond)
	fs := NewFS(k, g, d, FSConfig{Threads: 2}, stats.NewStream(8, "fs"))
	fs.Start()
	k.RunUntil(2 * sim.Second)
	fs.Stop()
	if fs.Ops().Completed() < 100 {
		t.Fatalf("FS completed %d ops", fs.Ops().Completed())
	}
	if fs.WrittenBytes() == 0 {
		t.Fatal("FS wrote nothing")
	}
	if *reads == 0 {
		t.Fatal("FS read nothing")
	}
	d.Cache.Close()
}

func TestWSMostlyReads(t *testing.T) {
	k := sim.NewKernel()
	g, d, reads := testGuestReads(k, 2, 100*sim.Microsecond)
	ws := NewWS(k, g, d, WSConfig{Threads: 2}, stats.NewStream(9, "ws"))
	ws.Start()
	k.RunUntil(2 * sim.Second)
	ws.Stop()
	writes := d.WriteLatency().Count()
	if *reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writes=%d", *reads, writes)
	}
	if float64(writes) > 0.2*float64(*reads) {
		t.Fatalf("WS not read-mostly: %d writes vs %d reads", writes, *reads)
	}
	d.Cache.Close()
}

func TestVSStreamsAndAddsVideos(t *testing.T) {
	k := sim.NewKernel()
	g, d := testGuest(k, 2, 200*sim.Microsecond)
	vs := NewVS(k, g, d, VSConfig{Readers: 3, VideoSize: 8 << 20, AddInterval: 500 * sim.Millisecond},
		stats.NewStream(10, "vs"))
	vs.Start()
	k.RunUntil(2 * sim.Second)
	vs.Stop()
	if vs.Ops().Completed() < 100 {
		t.Fatalf("VS streamed %d chunks", vs.Ops().Completed())
	}
	if vs.WrittenBytes() < 8<<20 {
		t.Fatalf("VS wrote %v bytes, want at least one video", vs.WrittenBytes())
	}
	d.Cache.Close()
}

func TestMultiStreamCompletesFiles(t *testing.T) {
	k := sim.NewKernel()
	g, d := testGuest(k, 4, 50*sim.Microsecond)
	ms := NewMultiStream(k, g, d, 4, 4<<20, 1<<20, stats.NewStream(11, "ms"))
	ms.Files = 2
	allDone := false
	ms.OnAllDone = func() { allDone = true }
	ms.Start()
	k.RunUntil(10 * sim.Second)
	if !allDone {
		t.Fatal("streams never finished their quota")
	}
	// 4 streams × 2 files × 4 chunks = 32 reads.
	if got := ms.Ops().Completed(); got != 32 {
		t.Fatalf("chunks = %d, want 32", got)
	}
	d.Cache.Close()
}

// memKV is an in-memory KV for generator tests.
type memKV struct {
	k           *sim.Kernel
	reads, upds int
	keys        map[int]int
}

func (m *memKV) Read(key int, done func()) {
	m.reads++
	m.keys[key]++
	m.k.After(10*sim.Microsecond, done)
}
func (m *memKV) Update(key int, done func()) {
	m.upds++
	m.keys[key]++
	m.k.After(10*sim.Microsecond, done)
}

func TestYCSBMixFractions(t *testing.T) {
	k := sim.NewKernel()
	kv := &memKV{k: k, keys: map[int]int{}}
	op := YCSBOp(YCSB2(), kv, stats.NewStream(12, "y"))
	gen := NewOpenLoop(k, 10000, 20000, op, stats.NewStream(13, "y"))
	gen.Start()
	k.Run()
	total := kv.reads + kv.upds
	frac := float64(kv.reads) / float64(total)
	if frac < 0.93 || frac > 0.97 {
		t.Fatalf("YCSB2 read fraction = %v, want ~0.95", frac)
	}
}

func TestYCSBKeysSkewed(t *testing.T) {
	k := sim.NewKernel()
	kv := &memKV{k: k, keys: map[int]int{}}
	cfg := YCSB1()
	cfg.Records = 10000
	op := YCSBOp(cfg, kv, stats.NewStream(14, "y"))
	gen := NewOpenLoop(k, 100000, 50000, op, stats.NewStream(15, "y"))
	gen.Start()
	k.Run()
	// The hottest key should be far above uniform (5 per key).
	max := 0
	for _, c := range kv.keys {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("hottest key seen %d times; zipfian skew missing", max)
	}
}

func TestCPUBoundRunsAndFinishes(t *testing.T) {
	k := sim.NewKernel()
	g, _ := testGuest(k, 2, sim.Microsecond)
	cb := NewCPUBound(k, g, stats.NewStream(16, "c9"))
	cb.TotalBursts = 50
	doneAt := sim.Time(0)
	cb.OnDone = func() { doneAt = k.Now() }
	cb.Start()
	k.RunUntil(sim.Hour)
	if doneAt == 0 {
		t.Fatal("CPUBound never finished")
	}
	if cb.Ops().Completed() != 50 {
		t.Fatalf("bursts = %d, want 50", cb.Ops().Completed())
	}
	// 50 bursts × ~10ms on 2 VCPUs ≈ 250ms.
	if doneAt < 100*sim.Millisecond || doneAt > 2*sim.Second {
		t.Fatalf("finished at %v, want ~250ms", doneAt)
	}
}

func TestBlastScanSequentialAndFinite(t *testing.T) {
	k := sim.NewKernel()
	g, d := testGuest(k, 1, 100*sim.Microsecond)
	bs := NewBlastScan(k, g, d, 64<<20, stats.NewStream(17, "blast"))
	done := false
	bs.OnDone = func() { done = true }
	bs.Start()
	k.RunUntil(sim.Minute)
	if !done {
		t.Fatal("scan never finished")
	}
	if got := bs.Ops().Completed(); got != 16 { // 64MiB / 4MiB
		t.Fatalf("chunks = %d, want 16", got)
	}
	d.Cache.Close()
}

func TestBlastScanLoops(t *testing.T) {
	k := sim.NewKernel()
	g, d := testGuest(k, 1, 10*sim.Microsecond)
	bs := NewBlastScan(k, g, d, 8<<20, stats.NewStream(18, "blast"))
	bs.Loop = true
	bs.Start()
	k.RunUntil(sim.Second)
	bs.Stop()
	if bs.Ops().Completed() < 10 {
		t.Fatalf("looping scan made little progress: %d", bs.Ops().Completed())
	}
	d.Cache.Close()
}
