package cluster

import (
	"testing"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

func TestTestbedBuildsIndependentHosts(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 3, hypervisor.Config{}, stats.NewStream(1, "tb"))
	if n := len(tb.Hosts()); n != 3 {
		t.Fatalf("%d hosts, want 3", n)
	}
	if tb.Hosts()[0].Device() == tb.Hosts()[1].Device() {
		t.Fatal("hosts share a device")
	}
	if tb.Hosts()[0].Name() == tb.Hosts()[1].Name() {
		t.Fatal("hosts share a name")
	}
}

func TestArrivalsPlacesRunsAndCompletes(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(2, "arr")
	h := hypervisor.New(k, hypervisor.Config{}, rng.Fork("host"))
	cfg := ArrivalsConfig{
		Lambda:       12,
		Duration:     4 * sim.Minute,
		Sizes:        []int{2, 4},
		Apps:         []AppKind{AppFS, AppYCSB1, AppCloud9},
		YCSBOps:      2000,
		FSBytes:      64 << 20,
		Cloud9Bursts: 200,
	}
	created, removed := 0, 0
	a := NewArrivals(k, h, cfg, VMHooks{
		OnCreate: func(rt *hypervisor.GuestRuntime) { created++ },
		OnRemove: func(rt *hypervisor.GuestRuntime) { removed++ },
	}, rng.Fork("arr"))
	a.Start()
	k.RunUntil(6 * sim.Minute)
	if a.arrived < 20 {
		t.Fatalf("Arrived = %d at λ=12 over 4 min", a.arrived)
	}
	if a.placed == 0 || a.Completed() == 0 {
		t.Fatalf("placed=%d completed=%d", a.placed, a.Completed())
	}
	if created != a.placed || removed != a.Completed() {
		t.Fatalf("hooks: created=%d placed=%d removed=%d completed=%d",
			created, a.placed, removed, a.Completed())
	}
	if a.WrittenBytes() == 0 {
		t.Fatal("no write throughput recorded")
	}
	// Conservation: placed = completed + still running + never-placed.
	if a.placed < a.Completed() {
		t.Fatal("completed more than placed")
	}
}

func TestArrivalsFIFOQueueUnderPressure(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(3, "arr")
	// Tiny host: 1 socket × 4 cores; big VMs queue.
	h := hypervisor.New(k, hypervisor.Config{Sockets: 1, CoresPerSocket: 4}, rng.Fork("host"))
	cfg := ArrivalsConfig{
		Lambda:       30,
		Duration:     2 * sim.Minute,
		Sizes:        []int{4},
		Apps:         []AppKind{AppCloud9},
		Cloud9Bursts: 3000, // ~30 s per VM on 4 VCPUs
	}
	a := NewArrivals(k, h, cfg, VMHooks{}, rng.Fork("arr"))
	a.Start()
	k.RunUntil(90 * sim.Second)
	// Only one 4-VCPU VM fits at a time: a queue must have formed.
	if len(a.queue) == 0 {
		t.Fatalf("no FIFO queue under pressure (arrived=%d placed=%d)", a.arrived, a.placed)
	}
	if a.placed > 2+a.Completed() {
		t.Fatalf("overcommitted: placed=%d completed=%d", a.placed, a.Completed())
	}
}

func TestArrivalsStopsAtDuration(t *testing.T) {
	k := sim.NewKernel()
	rng := stats.NewStream(4, "arr")
	h := hypervisor.New(k, hypervisor.Config{}, rng.Fork("host"))
	cfg := ArrivalsConfig{
		Lambda:       60,
		Duration:     30 * sim.Second,
		Sizes:        []int{2},
		Apps:         []AppKind{AppCloud9},
		Cloud9Bursts: 50,
	}
	a := NewArrivals(k, h, cfg, VMHooks{}, rng.Fork("arr"))
	a.Start()
	k.RunUntil(5 * sim.Minute)
	arrivedAtEnd := a.arrived
	k.RunUntil(10 * sim.Minute)
	if a.arrived != arrivedAtEnd {
		t.Fatal("arrivals continued past duration")
	}
	// ~30 VMs expected in 30 s at 60/min.
	if a.arrived < 15 || a.arrived > 50 {
		t.Fatalf("Arrived = %d, want ~30", a.arrived)
	}
}

func TestAppKindString(t *testing.T) {
	if AppFS.String() != "FS" || AppYCSB1.String() != "YCSB1" || AppCloud9.String() != "Cloud9" {
		t.Fatal("AppKind names wrong")
	}
}
