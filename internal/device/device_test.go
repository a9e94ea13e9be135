package device

import (
	"testing"
	"testing/quick"

	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

func testSSD(k *sim.Kernel) *SSD {
	cfg := Intel520Config("ssd-test")
	cfg.JitterFrac = 0 // deterministic timings for assertions
	cfg.WriteTailOdds = 0
	return NewSSD(k, cfg, stats.NewStream(1, "ssd"))
}

func TestSSDSequentialReadTiming(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k)
	var doneAt sim.Time
	d.Submit(&Request{Op: Read, Size: 1 << 20, Sequential: true, Done: func() { doneAt = k.Now() }})
	k.Run()
	cfg := Intel520Config("ref")
	want := accessLatency + sim.Duration(float64(1<<20)/cfg.SeqReadBps*float64(sim.Second))
	if diff := doneAt - want; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Fatalf("read completed at %v, want ~%v", doneAt, want)
	}
}

func TestSSDRandomSmallReadIOPSBound(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k)
	var doneAt sim.Time
	d.Submit(&Request{Op: Read, Size: 4096, Sequential: false, Done: func() { doneAt = k.Now() }})
	k.Run()
	cfg := Intel520Config("ref")
	want := accessLatency + sim.Duration(float64(sim.Second)/cfg.RandReadIOPS)
	if diff := doneAt - want; diff < -sim.Microsecond || diff > sim.Microsecond {
		t.Fatalf("random read at %v, want ~%v", doneAt, want)
	}
}

func TestSSDQueueingBeyondParallelism(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k) // parallelism 4
	completions := 0
	for i := 0; i < 8; i++ {
		d.Submit(&Request{Op: Read, Size: 1 << 20, Sequential: true, Done: func() { completions++ }})
	}
	if d.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", d.Pending())
	}
	k.Run()
	if completions != 8 {
		t.Fatalf("completions = %d", completions)
	}
	if !d.Idle() {
		t.Fatal("device not idle after drain")
	}
	if d.Completed() != 8 {
		t.Fatalf("Completed = %d", d.Completed())
	}
	if d.BytesMoved() != 8*(1<<20) {
		t.Fatalf("BytesMoved = %v", d.BytesMoved())
	}
}

func TestSSDCongestionThreshold(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k) // queue limit 128, threshold 112
	for i := 0; i < 111; i++ {
		d.Submit(&Request{Op: Write, Size: 4096})
	}
	if d.Congested() {
		t.Fatal("congested below 7/8 threshold")
	}
	d.Submit(&Request{Op: Write, Size: 4096})
	if !d.Congested() {
		t.Fatalf("not congested at %d/128 pending", d.Pending())
	}
	k.Run()
}

func TestSSDUtilizationIntegrates(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k)
	d.Submit(&Request{Op: Read, Size: 50 << 20, Sequential: true}) // ~100ms busy
	k.Run()
	end := k.Now()
	frac := d.UtilFraction(end)
	if frac < 0.99 {
		t.Fatalf("UtilFraction = %v during solid busy period", frac)
	}
	// Now idle for an equal period: fraction halves.
	k.At(end*2, func() {})
	k.Run()
	if frac := d.UtilFraction(k.Now()); frac < 0.45 || frac > 0.55 {
		t.Fatalf("UtilFraction after idle = %v, want ~0.5", frac)
	}
}

func TestSSDBandwidthWindow(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k)
	d.Submit(&Request{Op: Read, Size: 10 << 20, Sequential: true})
	k.Run()
	bw := d.BandwidthBps(k.Now())
	if bw < 100e6 {
		t.Fatalf("BandwidthBps = %v right after a 10MiB transfer", bw)
	}
}

func TestSSDServiceLatencyHistogram(t *testing.T) {
	k := sim.NewKernel()
	d := testSSD(k)
	for i := 0; i < 10; i++ {
		d.Submit(&Request{Op: Read, Size: 4096})
	}
	k.Run()
	if d.ServiceLatency().Count() != 10 {
		t.Fatalf("latency samples = %d", d.ServiceLatency().Count())
	}
}

func TestWriteTailApplies(t *testing.T) {
	k := sim.NewKernel()
	cfg := Intel520Config("tail")
	cfg.JitterFrac = 0
	cfg.WriteTailOdds = 1 // every write hits the tail
	cfg.WriteTailFactor = 10
	d := NewSSD(k, cfg, stats.NewStream(2, "tail"))
	var doneAt sim.Time
	d.Submit(&Request{Op: Write, Size: 4096, Done: func() { doneAt = k.Now() }})
	k.Run()
	base := 60*sim.Microsecond + sim.Duration(float64(4096)/(40000*4096)*float64(sim.Second))
	if doneAt < 9*base {
		t.Fatalf("tail write at %v, want ≥ 9×%v", doneAt, base)
	}
}

func TestRAID0SplitsAndCompletesOnce(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(3, "raid")
	members := make([]BlockDevice, 4)
	for i := range members {
		cfg := Intel520Config("m")
		cfg.JitterFrac = 0
		cfg.WriteTailOdds = 0
		members[i] = NewSSD(k, cfg, rng.Fork("m"))
	}
	a := NewRAID0(k, "md0", members, 256<<10)
	completions := 0
	a.Submit(&Request{Op: Read, Size: 1 << 20, Sequential: true, Done: func() { completions++ }})
	k.Run()
	if completions != 1 {
		t.Fatalf("Done fired %d times, want exactly 1", completions)
	}
	moved := 0.0
	for _, m := range members {
		moved += m.(*SSD).BytesMoved()
	}
	if moved != 1<<20 {
		t.Fatalf("members moved %v bytes, want %v", moved, 1<<20)
	}
	// 1MiB/256KiB = 4 chunks over 4 members: all must have participated.
	for i, m := range members {
		if m.(*SSD).Completed() != 1 {
			t.Fatalf("member %d completed %d, want 1", i, m.(*SSD).Completed())
		}
	}
}

func TestRAID0ParallelSpeedup(t *testing.T) {
	mk := func(nMembers int) sim.Time {
		k := sim.NewKernel()
		rng := stats.NewStream(4, "raidspeed")
		members := make([]BlockDevice, nMembers)
		for i := range members {
			cfg := Intel520Config("m")
			cfg.JitterFrac = 0
			cfg.WriteTailOdds = 0
			members[i] = NewSSD(k, cfg, rng.Fork("m"))
		}
		a := NewRAID0(k, "md0", members, 256<<10)
		var doneAt sim.Time
		a.Submit(&Request{Op: Read, Size: 64 << 20, Sequential: true, Done: func() { doneAt = k.Now() }})
		k.Run()
		return doneAt
	}
	t1, t8 := mk(1), mk(8)
	if t8*4 > t1 {
		t.Fatalf("8-way RAID0 (%v) not ≥4x faster than single (%v)", t8, t1)
	}
}

func TestRAID0SmallRequestSingleMember(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(5, "raidsmall")
	members := make([]BlockDevice, 2)
	for i := range members {
		cfg := Intel520Config("m")
		members[i] = NewSSD(k, cfg, rng.Fork("m"))
	}
	a := NewRAID0(k, "md0", members, 256<<10)
	a.Submit(&Request{Op: Read, Size: 4096})
	a.Submit(&Request{Op: Read, Size: 4096})
	k.Run()
	// Round-robin: the two small requests land on different members.
	if members[0].(*SSD).Completed() != 1 || members[1].(*SSD).Completed() != 1 {
		t.Fatalf("small requests not spread: %d/%d",
			members[0].(*SSD).Completed(), members[1].(*SSD).Completed())
	}
}

func TestRAID0AggregateAccounting(t *testing.T) {
	k := sim.NewKernel()
	a := PaperArray(k, stats.NewStream(6, "paper"))
	if got := a.CapacityBps(); got != 8*Intel520Config("ref").SeqReadBps {
		t.Fatalf("CapacityBps = %v", got)
	}
	if got := a.QueueLimit(); got != 8*128 {
		t.Fatalf("QueueLimit = %v", got)
	}
	if !a.Idle() {
		t.Fatal("fresh array not idle")
	}
	if a.Congested() {
		t.Fatal("fresh array congested")
	}
	if len(a.Members()) != 8 {
		t.Fatalf("Members = %d", len(a.Members()))
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String broken")
	}
	r := Request{Op: Write, Size: 512, Owner: 3}
	if r.String() == "" {
		t.Fatal("empty Request.String")
	}
}

// Property: any workload mix fully drains and conserves request count.
func TestPropertyDeviceConservesRequests(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		k := sim.NewKernel()
		cfg := Intel520Config("prop")
		d := NewSSD(k, cfg, stats.NewStream(seed, "prop"))
		done := 0
		for i, s := range sizes {
			op := Read
			if i%2 == 0 {
				op = Write
			}
			d.Submit(&Request{Op: op, Size: int64(s) + 1, Sequential: i%3 == 0, Done: func() { done++ }})
		}
		k.Run()
		return done == len(sizes) && d.Idle() && d.Completed() == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
