package iorchestra

import "testing"

func TestSystemsOrderAndNames(t *testing.T) {
	ss := Systems()
	want := []string{"Baseline", "SDC", "DIF", "IOrchestra"}
	if len(ss) != 4 {
		t.Fatalf("Systems = %v", ss)
	}
	for i, s := range ss {
		if s.String() != want[i] {
			t.Fatalf("Systems()[%d] = %v, want %s", i, s, want[i])
		}
	}
	if System(99).String() == "" {
		t.Fatal("unknown system has empty name")
	}
}

func TestPlatformComponentsPerSystem(t *testing.T) {
	for _, sys := range Systems() {
		p := NewPlatform(sys, 1)
		if p.Host == nil || p.Kernel == nil {
			t.Fatalf("%v: missing host/kernel", sys)
		}
		switch sys {
		case SystemIOrchestra:
			if p.Manager == nil {
				t.Fatalf("%v: no manager", sys)
			}
			if len(p.Host.IOCores()) == 0 { // dedicated I/O cores exist only in ModeDedicated
				t.Fatalf("%v: wrong mode", sys)
			}
		case SystemSDC:
			if p.SDC == nil {
				t.Fatalf("%v: no SDC", sys)
			}
			if len(p.Host.IOCores()) == 0 { // dedicated I/O cores exist only in ModeDedicated
				t.Fatalf("%v: wrong mode", sys)
			}
		case SystemDIF:
			if p.DIF == nil {
				t.Fatalf("%v: no DIF", sys)
			}
			if len(p.Host.IOCores()) != 0 {
				t.Fatalf("%v: wrong mode", sys)
			}
		case SystemBaseline:
			if p.Manager != nil || p.DIF != nil || p.SDC != nil {
				t.Fatalf("%v: unexpected components", sys)
			}
		}
	}
}

func TestNewVMWorksOnAllSystems(t *testing.T) {
	for _, sys := range Systems() {
		p := NewPlatform(sys, 2)
		vm := p.NewVM(2, 4)
		if vm.G.NumVCPUs() != 2 {
			t.Fatalf("%v: vcpus = %d", sys, vm.G.NumVCPUs())
		}
		if vm.G.MemBytes() != 4<<30 {
			t.Fatalf("%v: mem = %d", sys, vm.G.MemBytes())
		}
		if len(vm.G.Disks()) != 1 {
			t.Fatalf("%v: disks = %d", sys, len(vm.G.Disks()))
		}
		// A read completes end to end on every platform.
		proc := vm.G.NewProcess(1)
		done := false
		vm.G.Disks()[0].Read(proc, 4096, false, func() { done = true })
		p.RunFor(Second)
		if !done {
			t.Fatalf("%v: read lost", sys)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Time {
		p := NewPlatform(SystemIOrchestra, 7)
		vm := p.NewVM(2, 4)
		proc := vm.G.NewProcess(1)
		var last Time
		n := 0
		var issue func()
		issue = func() {
			if n >= 200 {
				return
			}
			n++
			vm.G.Disks()[0].Read(proc, 64<<10, false, func() {
				last = p.Kernel.Now()
				issue()
			})
		}
		issue()
		p.RunFor(10 * Second)
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("no work happened")
	}
}

func TestWithPoliciesSubset(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 3, WithPolicies(Policies{Flush: true}))
	if p.Manager == nil {
		t.Fatal("no manager")
	}
}

func TestWithHostConfig(t *testing.T) {
	p := NewPlatform(SystemBaseline, 4, WithHostConfig(HostConfig{Sockets: 1, CoresPerSocket: 3}))
	if p.Host.TotalCores() != 3 {
		t.Fatalf("TotalCores = %d", p.Host.TotalCores())
	}
}
