package hypervisor

import (
	"maps"
	"math"
	"slices"
	"testing"

	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

func quietSSD(k *sim.Kernel, seed uint64) *device.SSD {
	cfg := device.Intel520Config("ssd")
	cfg.JitterFrac = 0
	cfg.WriteTailOdds = 0
	return device.NewSSD(k, cfg, stats.NewStream(seed, "ssd"))
}

func TestCgroupEqualWeightsShareEqually(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 1)
	cg := NewCgroup(k, dev, 4)
	cg.SetWeight(1, 1)
	cg.SetWeight(2, 1)
	var b1, b2 float64
	for i := 0; i < 200; i++ {
		cg.Submit(1, &device.Request{Op: device.Read, Size: 64 << 10, Sequential: true, Done: func() { b1 += 64 << 10 }})
		cg.Submit(2, &device.Request{Op: device.Read, Size: 64 << 10, Sequential: true, Done: func() { b2 += 64 << 10 }})
	}
	// Run only part way so both classes are still backlogged (fairness is
	// only defined while both compete).
	k.RunUntil(20 * sim.Millisecond)
	if b1 == 0 || b2 == 0 {
		t.Fatalf("no progress: %v/%v", b1, b2)
	}
	if ratio := b1 / b2; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("equal weights completed %v vs %v (ratio %v)", b1, b2, ratio)
	}
	k.Run()
}

func TestCgroupWeightedShares(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 2)
	cg := NewCgroup(k, dev, 4)
	cg.SetWeight(1, 3)
	cg.SetWeight(2, 1)
	var b1, b2 float64
	for i := 0; i < 400; i++ {
		cg.Submit(1, &device.Request{Op: device.Read, Size: 64 << 10, Sequential: true, Done: func() { b1 += 64 << 10 }})
		cg.Submit(2, &device.Request{Op: device.Read, Size: 64 << 10, Sequential: true, Done: func() { b2 += 64 << 10 }})
	}
	k.RunUntil(20 * sim.Millisecond)
	if ratio := b1 / b2; ratio < 2.2 || ratio > 4.0 {
		t.Fatalf("3:1 weights completed ratio %v (%v vs %v)", ratio, b1, b2)
	}
	k.Run()
}

func TestCgroupInFlightCap(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 3)
	cg := NewCgroup(k, dev, 4)
	for i := 0; i < 50; i++ {
		cg.Submit(1, &device.Request{Op: device.Read, Size: 1 << 20, Sequential: true})
	}
	if cg.inFlight != 4 {
		t.Fatalf("%d in flight, want cap 4", cg.inFlight)
	}
	if cg.drr.queued != 46 {
		t.Fatalf("%d queued, want 46", cg.drr.queued)
	}
	k.Run()
	if cg.inFlight != 0 || cg.drr.queued != 0 {
		t.Fatal("not drained")
	}
}

func TestCgroupCompletionCallbacksPreserved(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 4)
	cg := NewCgroup(k, dev, 2)
	done := 0
	for i := 0; i < 10; i++ {
		cg.Submit(1, &device.Request{Op: device.Write, Size: 4096, Done: func() { done++ }})
	}
	k.Run()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
}

func TestIOCoreProcessesAndObservesLatency(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 5)
	cg := NewCgroup(k, dev, 8)
	core := NewIOCore(k, 0, cg, 3*sim.Microsecond, 6e9)
	done := 0
	for i := 0; i < 20; i++ {
		core.Enqueue(1, &device.Request{Op: device.Read, Size: 4096, Done: func() { done++ }})
	}
	k.Run()
	if done != 20 {
		t.Fatalf("done = %d", done)
	}
	if core.Processed() != 20 {
		t.Fatalf("Processed = %d", core.Processed())
	}
	if core.MeanLatency(k.Now()) <= 0 {
		t.Fatal("MeanLatency not positive")
	}
	if core.Bytes() != 20*4096 {
		t.Fatalf("Bytes = %v", core.Bytes())
	}
}

func TestIOCoreDRRQuantaBiasService(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 6)
	// Large device concurrency: the polling core is the bottleneck.
	cg := NewCgroup(k, dev, 64)
	core := NewIOCore(k, 0, cg, 10*sim.Microsecond, 1e9)
	core.SetQuantum(1, 4*256<<10)
	core.SetQuantum(2, 1*256<<10)
	var b1, b2 float64
	for i := 0; i < 300; i++ {
		core.Enqueue(1, &device.Request{Op: device.Read, Size: 64 << 10, Done: func() { b1 += 64 << 10 }})
		core.Enqueue(2, &device.Request{Op: device.Read, Size: 64 << 10, Done: func() { b2 += 64 << 10 }})
	}
	// Measure while both buffers are still backlogged (~200 of 600 served).
	k.RunUntil(15 * sim.Millisecond)
	if b1 == 0 || b2 == 0 {
		t.Fatalf("no progress: %v/%v", b1, b2)
	}
	if ratio := b1 / b2; ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("4:1 quanta gave completion ratio %v", ratio)
	}
	k.Run()
}

func TestIOCoreEmptyBufferForfeitsCredit(t *testing.T) {
	k := sim.NewKernel()
	dev := quietSSD(k, 7)
	cg := NewCgroup(k, dev, 8)
	core := NewIOCore(k, 0, cg, sim.Microsecond, 6e9)
	// VM 1 idles while VM 2 works: VM 1 must not accumulate credit.
	core.SetQuantum(1, 1<<20)
	core.SetQuantum(2, 1<<20)
	for i := 0; i < 10; i++ {
		core.Enqueue(2, &device.Request{Op: device.Read, Size: 4096})
	}
	k.Run()
	if got := core.drr.byID[2].queue.Len(); got != 0 {
		t.Fatalf("VM2 backlog = %d", got)
	}
	if core.drr.queued != 0 {
		t.Fatal("core not drained")
	}
}

func TestHostEndToEndReadThroughBackend(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend}, stats.NewStream(8, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	p := rt.G.NewProcess(1)
	d := rt.G.Disk("xvda")
	var doneAt sim.Time
	d.Read(p, 4096, false, func() { doneAt = k.Now() })
	k.Run()
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	// Must include two ring crossings (2×25µs), backend cost (12µs) and
	// device access (~80µs+).
	if doneAt < 100*sim.Microsecond {
		t.Fatalf("end-to-end read %v implausibly fast", doneAt)
	}
	if doneAt > 5*sim.Millisecond {
		t.Fatalf("end-to-end read %v implausibly slow", doneAt)
	}
}

func TestHostDedicatedRoutesToHomeSocket(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeDedicated, RouteBySocket: false, Sockets: 2, CoresPerSocket: 6},
		stats.NewStream(9, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	p := rt.G.NewProcess(1)
	d := rt.G.Disk("xvda")
	done := false
	d.Read(p, 4096, false, func() { done = true })
	k.Run()
	if !done {
		t.Fatal("read lost")
	}
	home := h.IOCores()[rt.HomeSocket]
	other := h.IOCores()[1-rt.HomeSocket]
	if home.Processed() != 1 || other.Processed() != 0 {
		t.Fatalf("processed home=%d other=%d", home.Processed(), other.Processed())
	}
}

func TestHostDedicatedRouteBySocket(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeDedicated, RouteBySocket: true, Sockets: 2, CoresPerSocket: 2},
		stats.NewStream(10, "host"))
	// 2 sockets × 2 cores with core 0 reserved on each: only one free
	// core per socket, so a 2-VCPU guest spans sockets.
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	socks := rt.G.Sockets()
	if len(socks) != 2 {
		t.Fatalf("guest sockets = %v, want cross-socket placement", socks)
	}
	d := rt.G.Disk("xvda")
	p0 := rt.G.NewProcess(1) // vcpu0
	p1 := rt.G.NewProcess(1) // vcpu1 (other socket)
	d.Read(p0, 4096, false, nil)
	d.Read(p1, 4096, false, nil)
	k.Run()
	if h.IOCores()[0].Processed() != 1 || h.IOCores()[1].Processed() != 1 {
		t.Fatalf("routing by socket failed: %d/%d",
			h.IOCores()[0].Processed(), h.IOCores()[1].Processed())
	}
}

func TestPlacementOvercommitSharesCoresWorkConserving(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend, Sockets: 2, CoresPerSocket: 2}, stats.NewStream(11, "host"))
	// 4 cores total; three 2-VCPU guests = 6 VCPUs → two cores carry two
	// VCPUs each.
	rt1 := h.CreateGuest(guest.Config{VCPUs: 2})
	rt2 := h.CreateGuest(guest.Config{VCPUs: 2})
	rt3 := h.CreateGuest(guest.Config{VCPUs: 2})
	// rt1's VCPU 0 and rt3's VCPU 0 share a core: concurrent bursts
	// serialize (10ms + 10ms = 20ms wall for the later one), but an idle
	// co-located VCPU costs nothing (work conserving).
	var doneA, doneB sim.Time
	rt1.G.VCPU(0).Run(10*sim.Millisecond, func() { doneA = k.Now() })
	rt3.G.VCPU(0).Run(10*sim.Millisecond, func() { doneB = k.Now() })
	k.Run()
	if doneA != 10*sim.Millisecond {
		t.Fatalf("first burst done at %v, want 10ms", doneA)
	}
	if doneB != 20*sim.Millisecond {
		t.Fatalf("second burst done at %v, want serialized 20ms", doneB)
	}
	// rt2's VCPUs are on uncontended cores: full speed.
	var doneC sim.Time
	start := k.Now()
	rt2.G.VCPU(0).Run(10*sim.Millisecond, func() { doneC = k.Now() })
	k.Run()
	if doneC-start != 10*sim.Millisecond {
		t.Fatalf("uncontended burst took %v, want 10ms", doneC-start)
	}
	h.RemoveGuest(rt3.G.ID())
}

func TestReservedIOCoresNotUsedForVCPUs(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeDedicated, Sockets: 2, CoresPerSocket: 2}, stats.NewStream(12, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 2})
	for _, sc := range rt.vcpuCores {
		if sc[1] == 0 {
			t.Fatalf("VCPU placed on reserved core: %v", sc)
		}
	}
}

func TestDuplicateDomainPanics(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{}, stats.NewStream(13, "host"))
	h.CreateGuest(guest.Config{ID: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.CreateGuest(guest.Config{ID: 5})
}

func TestCPUUtilizationAccounts(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeDedicated, Sockets: 2, CoresPerSocket: 6}, stats.NewStream(14, "host"))
	// Two spinning I/O cores out of 12 → at least 1/6 utilization.
	if got := h.CPUUtilization(sim.Second); got < 1.0/6-1e-9 {
		t.Fatalf("CPUUtilization = %v, want >= %v", got, 1.0/6)
	}
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	rt.G.VCPU(0).Run(sim.Second, nil)
	k.Run()
	got := h.CPUUtilization(k.Now())
	want := (2.0 + 1.0) / 12.0
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("CPUUtilization = %v, want ~%v", got, want)
	}
}

func TestBackendUtilizationTracksWork(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend, BackendCostPerReq: sim.Millisecond}, stats.NewStream(15, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	for i := 0; i < 5; i++ {
		d.Read(p, 4096, false, nil)
	}
	k.Run()
	if h.backendUtil.Fraction(k.Now()) <= 0 {
		t.Fatal("backend utilization not tracked")
	}
}

func TestGuestsListingAndLookup(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{}, stats.NewStream(16, "host"))
	a := h.CreateGuest(guest.Config{VCPUs: 1})
	b := h.CreateGuest(guest.Config{VCPUs: 1})
	if len(h.guests) != 2 {
		t.Fatalf("guests = %d", len(h.guests))
	}
	if h.Guest(a.G.ID()) != a || h.Guest(b.G.ID()) != b {
		t.Fatal("lookup broken")
	}
	h.RemoveGuest(a.G.ID())
	if len(h.guests) != 1 {
		t.Fatal("removal not reflected")
	}
	if h.Guest(a.G.ID()) != nil {
		t.Fatal("removed guest still present")
	}
}

// A departed guest leaves nothing behind on the host: not its runtime,
// not its bus handle — and the guests that stay are still held.
func TestRemoveGuestForgetsTheGuest(t *testing.T) {
	h := New(sim.NewKernel(), Config{}, stats.NewStream(16, "host"))
	var ids []store.DomID
	for i := 0; i < 5; i++ {
		ids = append(ids, h.CreateGuest(guest.Config{VCPUs: 1}).G.ID())
	}
	h.RemoveGuest(ids[1])
	h.RemoveGuest(ids[3])
	h.RemoveGuest(ids[3]) // a second removal is a no-op
	want := []store.DomID{ids[0], ids[2], ids[4]}
	if got := slices.Sorted(maps.Keys(h.guests)); !slices.Equal(got, want) || !slices.Equal(h.bs.Domains(), want) {
		t.Fatalf("after two removals: guests %v, bus domains %v, want both %v", got, h.bs.Domains(), want)
	}
	// An id that comes back (a guest re-created under its old id) is held once.
	h.CreateGuest(guest.Config{ID: ids[1], VCPUs: 1})
	want = []store.DomID{ids[0], ids[1], ids[2], ids[4]}
	if got := slices.Sorted(maps.Keys(h.guests)); !slices.Equal(got, want) || !slices.Equal(h.bs.Domains(), want) {
		t.Fatalf("after a return: guests %v, bus domains %v, want both %v", got, h.bs.Domains(), want)
	}
}

func TestSetClassWeightAffectsCgroup(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend}, stats.NewStream(17, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	h.SetClassWeight(int(rt.G.ID()), 4)
	if got := h.cg.drr.byID[int(rt.G.ID())].quantum; got != 4*cgQuantum {
		t.Fatalf("quantum = %v, want 4 × %v", got, cgQuantum)
	}
}

func TestHostTracerRecordsDispatchPath(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend, Trace: true}, stats.NewStream(18, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	p := rt.G.NewProcess(1)
	d := rt.G.Disk("xvda")
	for i := 0; i < 5; i++ {
		d.Read(p, 4096, false, nil)
	}
	k.Run()
	q, issue, comp := h.rec.Count(trace.KindDevQueue), h.rec.Count(trace.KindDevIssue), h.rec.Count(trace.KindDevComplete)
	if q != 5 || issue != 5 || comp != 5 {
		t.Fatalf("trace Q/D/C = %d/%d/%d, want 5/5/5", q, issue, comp)
	}
	if n, sum := h.cg.PathLatency(int(rt.G.ID())); n != 5 || sum <= 0 {
		t.Fatalf("host-path aggregate = %d completions, %v; want 5, > 0", n, sum)
	}
}

// TestCgroupRecordsQDCInOrder: with a recorder set, each request through
// the cgroup leaves dev.queue when it arrives, dev.issue when it goes to
// the device and dev.complete, carrying its host-path latency, when it
// comes back — typed, counted and in sim-time order.
func TestCgroupRecordsQDCInOrder(t *testing.T) {
	k := sim.NewKernel()
	cg := NewCgroup(k, quietSSD(k, 21), 1)
	cg.rec = trace.NewRecorder(k, 8)
	k.At(1, func() {
		cg.Submit(1, &device.Request{Op: device.Write, Size: 4096, Owner: 1})
		cg.Submit(2, &device.Request{Op: device.Read, Size: 8192, Owner: 2})
	})
	k.Run()
	type ev struct {
		kind trace.Kind
		dom  int
	}
	want := []ev{
		{trace.KindDevQueue, 1}, {trace.KindDevIssue, 1}, {trace.KindDevQueue, 2},
		{trace.KindDevComplete, 1}, {trace.KindDevIssue, 2}, {trace.KindDevComplete, 2},
	}
	evs := cg.rec.Events()
	if len(evs) != len(want) {
		t.Fatalf("%d records, want %d: %v", len(evs), len(want), evs)
	}
	for i, e := range evs {
		if e.Kind != want[i].kind || e.Dom != want[i].dom || e.Device != "ssd" {
			t.Fatalf("record %d = %v, want %s for dom %d on ssd", i, e, want[i].kind, want[i].dom)
		}
		if e.Kind == trace.KindDevComplete && e.Latency != e.At-1 {
			t.Fatalf("dom %d completed at %v with latency %v, want %v since its arrival", e.Dom, e.At, e.Latency, e.At-1)
		}
	}
	if evs[0].At != 1 || evs[3].At <= 1 || evs[5].At <= evs[3].At || !evs[0].Write || evs[2].Size != 8192 {
		t.Fatalf("times, direction or size wrong: %v", evs)
	}
	for _, kind := range []trace.Kind{trace.KindDevQueue, trace.KindDevIssue, trace.KindDevComplete} {
		if got := cg.rec.Count(kind); got != 2 {
			t.Fatalf("Count(%s) = %d, want 2", kind, got)
		}
	}
}

// TestCgroupPathLatency: completions feed a per-owner (count, summed
// host-path latency) with no recorder set; an owner without completions
// reads zeros.
func TestCgroupPathLatency(t *testing.T) {
	k := sim.NewKernel()
	cg := NewCgroup(k, quietSSD(k, 22), 1)
	var want [3]sim.Duration
	for i, owner := range []int{1, 1, 2} {
		at := sim.Time(i+1) * sim.Millisecond
		k.At(at, func() {
			cg.Submit(owner, &device.Request{Op: device.Read, Size: 4096, Owner: owner, Done: func() { want[owner] += k.Now() - at }})
		})
	}
	k.Run()
	if count, sum := cg.PathLatency(1); count != 2 || sum != want[1] || sum <= 0 {
		t.Fatalf("PathLatency(1) = %d, %v; want 2, %v", count, sum, want[1])
	}
	if count, sum := cg.PathLatency(2); count != 1 || sum != want[2] {
		t.Fatalf("PathLatency(2) = %d, %v; want 1, %v", count, sum, want[2])
	}
	if count, sum := cg.PathLatency(3); count != 0 || sum != 0 {
		t.Fatalf("PathLatency(3) = %d, %v; want zeros", count, sum)
	}
}
