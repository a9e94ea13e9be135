package guest

import (
	"testing"

	"iorchestra/internal/blkio"
	"iorchestra/internal/device"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

func mkGuest(k *sim.Kernel, vcpus int) *Guest {
	return New(k, Config{ID: 1, VCPUs: vcpus, MemBytes: 1 << 30}, stats.NewStream(1, "g"))
}

// fakeLower completes dispatches after a delay.
func fakeLower(k *sim.Kernel, delay sim.Duration) blkio.Lower {
	return blkio.LowerFunc(func(r *device.Request) { k.After(delay, r.Done) })
}

func TestVCPUComputeFIFO(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 1)
	var order []int
	v := g.VCPU(0)
	v.Run(10*sim.Millisecond, func() { order = append(order, 1) })
	v.Run(5*sim.Millisecond, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 15*sim.Millisecond {
		t.Fatalf("finished at %v, want 15ms", k.Now())
	}
}

func TestProcessRoundRobinAssignment(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 4)
	for i := 0; i < 8; i++ {
		g.NewProcess(1)
	}
	for i, p := range g.Processes() {
		if p.vcpu.idx != i%4 {
			t.Fatalf("proc %d on vcpu %d", i, p.vcpu.idx)
		}
	}
}

func TestProcessMoveAndSocketWeights(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 4)
	// Place VCPUs 0,1 on socket 0 and 2,3 on socket 1 (as a host would).
	g.PlaceVCPU(2, 1, nil)
	g.PlaceVCPU(3, 1, nil)
	p0 := g.NewProcess(2) // vcpu0, socket0
	p1 := g.NewProcess(3) // vcpu1, socket0
	p2 := g.NewProcess(5) // vcpu2, socket1
	w := g.ProcessWeightBySocket()
	if w[0] != 5 || w[1] != 5 {
		t.Fatalf("weights = %v", w)
	}
	if g.TotalProcessWeight() != 10 {
		t.Fatalf("total = %v", g.TotalProcessWeight())
	}
	p1.MoveTo(3)
	w = g.ProcessWeightBySocket()
	if w[0] != 2 || w[1] != 8 {
		t.Fatalf("weights after move = %v", w)
	}
	_ = p0
	_ = p2
	socks := g.Sockets()
	if len(socks) != 2 || socks[0] != 0 || socks[1] != 1 {
		t.Fatalf("Sockets = %v", socks)
	}
	if got := g.VCPUsOnSocket(1); len(got) != 2 {
		t.Fatalf("VCPUsOnSocket(1) = %v", got)
	}
}

func TestMoveToOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 2)
	p := g.NewProcess(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.MoveTo(5)
}

func TestAddDiskDefaultsAndLookup(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 2)
	v := g.AddDisk(DiskConfig{}, fakeLower(k, sim.Millisecond))
	if v.Name() != "xvda" {
		t.Fatalf("default name = %q", v.Name())
	}
	if g.Disk("xvda") != v {
		t.Fatal("Disk lookup failed")
	}
	if len(g.Disks()) != 1 {
		t.Fatal("Disks() wrong")
	}
	if v.Cache.DirtyPages() != 0 {
		t.Fatal("fresh cache dirty")
	}
	v.Cache.Close()
}

func TestVDiskReadCompletesWithLatency(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 2)
	v := g.AddDisk(DiskConfig{Name: "xvdb"}, fakeLower(k, 2*sim.Millisecond))
	p := g.NewProcess(1)
	completions := 0
	var took sim.Duration
	start := k.Now()
	v.Read(p, 4096, false, func() { completions++; took = k.Now() - start })
	k.Run()
	if completions != 1 {
		t.Fatalf("read completed %d times, want once", completions)
	}
	if took < 2*sim.Millisecond {
		t.Fatalf("read latency = %v, want >= 2ms", took)
	}
	v.Cache.Close()
}

func TestVDiskCacheHitSkipsDevice(t *testing.T) {
	k := sim.NewKernel()
	g := New(k, Config{ID: 1, VCPUs: 1, MemBytes: 1 << 30, CacheHitFrac: 1.0}, stats.NewStream(2, "g"))
	dispatched := 0
	v := g.AddDisk(DiskConfig{}, blkio.LowerFunc(func(r *device.Request) {
		dispatched++
		k.After(sim.Millisecond, r.Done)
	}))
	p := g.NewProcess(1)
	done := false
	v.Read(p, 4096, false, func() { done = true })
	k.Run()
	if !done || dispatched != 0 {
		t.Fatalf("done=%v dispatched=%d, want hit served from memory", done, dispatched)
	}
	v.Cache.Close()
}

func TestVDiskBufferedWriteReturnsFast(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 1)
	v := g.AddDisk(DiskConfig{}, fakeLower(k, 50*sim.Millisecond))
	p := g.NewProcess(1)
	var returnedAt sim.Time
	v.Write(p, 1<<20, func() { returnedAt = k.Now() })
	k.RunUntil(10 * sim.Millisecond)
	if returnedAt == 0 || returnedAt > sim.Millisecond {
		t.Fatalf("buffered write returned at %v, want ≪1ms", returnedAt)
	}
	if v.WriteLatency().Count() != 1 {
		t.Fatal("write latency not recorded")
	}
	v.Cache.Close()
	k.Run()
}

func TestVDiskFsync(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 1)
	v := g.AddDisk(DiskConfig{}, fakeLower(k, sim.Millisecond))
	p := g.NewProcess(1)
	v.Write(p, 1<<20, nil)
	synced := false
	v.Cache.Sync(func() { synced = true })
	k.RunUntil(sim.Second)
	if !synced {
		t.Fatal("the disk's sync never completed")
	}
	if v.Cache.DirtyPages() != 0 {
		t.Fatal("dirty pages after fsync")
	}
	v.Cache.Close()
}

func TestRequestsCarrySocketTag(t *testing.T) {
	k := sim.NewKernel()
	g := mkGuest(k, 2)
	g.PlaceVCPU(1, 1, nil)
	var gotSocket int
	v := g.AddDisk(DiskConfig{}, blkio.LowerFunc(func(r *device.Request) {
		gotSocket = r.Socket
		k.After(sim.Millisecond, r.Done)
	}))
	g.NewProcess(1)       // vcpu0
	p1 := g.NewProcess(1) // vcpu1 → socket 1
	v.Read(p1, 4096, false, nil)
	k.Run()
	if gotSocket != 1 {
		t.Fatalf("request socket = %d, want 1", gotSocket)
	}
	v.Cache.Close()
}

var _ = pagecache.PageSize // keep import available for config literals above
