package cluster

import (
	"fmt"
	"sync"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// ParallelTestbed is the multi-kernel variant of Testbed: one sim kernel
// per host, so independent hosts can advance on separate goroutines.
// Hosts in this testbed share nothing — each has its own store, device,
// manager and RNG fork — so any cross-host interaction must go through
// RunEpochs's sync callback at epoch boundaries. The single-kernel
// Testbed remains the right tool when hosts must interleave at event
// granularity.
type ParallelTestbed struct {
	kernels []*sim.Kernel
	hosts   []*hypervisor.Host
}

// NewParallelTestbed builds n identically configured hosts, each on its
// own kernel. RNG forks are drawn in host order from rng, so a given
// (seed, n) pair always yields the same per-host streams regardless of
// how the kernels are later scheduled onto goroutines.
func NewParallelTestbed(n int, cfg hypervisor.Config, rng *stats.Stream) *ParallelTestbed {
	if n <= 0 {
		n = 1
	}
	t := &ParallelTestbed{}
	for i := 0; i < n; i++ {
		c := cfg
		c.Name = fmt.Sprintf("host%d", i)
		c.Device = nil
		k := sim.NewKernel()
		t.kernels = append(t.kernels, k)
		t.hosts = append(t.hosts, hypervisor.New(k, c, rng.Fork(c.Name)))
	}
	return t
}

// Host returns the i-th host.
func (t *ParallelTestbed) Host(i int) *hypervisor.Host { return t.hosts[i] }

// Kernel returns the kernel the i-th host runs on.
func (t *ParallelTestbed) Kernel(i int) *sim.Kernel { return t.kernels[i] }

// Kernels exposes the per-host kernels, in host order.
func (t *ParallelTestbed) Kernels() []*sim.Kernel { return t.kernels }

// RunEpochs advances every kernel to target in epoch-sized barrier
// steps: each kernel runs one epoch on its own goroutine, and no kernel
// starts epoch e+1 until every kernel has finished epoch e. Between
// epochs the optional sync callback runs on the caller's goroutine with
// all kernels quiescent at the same virtual instant — the only safe
// point to exchange state across hosts (publish load, apply arrivals).
//
// Because each kernel is single-threaded within its epoch and the
// kernels share no state, the interleaving of goroutines cannot affect
// any kernel's event order: a parallel run is event-for-event identical
// to running the same kernels sequentially (TestRunEpochsParity pins
// this). A single kernel short-circuits to a plain RunUntil.
func RunEpochs(kernels []*sim.Kernel, target sim.Time, epoch sim.Duration, sync func(upto sim.Time)) {
	if epoch <= 0 {
		panic("cluster: RunEpochs with non-positive epoch")
	}
	if len(kernels) == 1 {
		kernels[0].RunUntil(target)
		if sync != nil {
			sync(target)
		}
		return
	}
	// Start from the earliest kernel clock so a testbed resumed after a
	// partial advance still hits aligned barriers.
	var now sim.Time
	for i, k := range kernels {
		if i == 0 || k.Now() < now {
			now = k.Now()
		}
	}
	for now < target {
		upto := now + epoch
		if upto > target || upto < now { // clamp, and guard overflow
			upto = target
		}
		runEpoch(kernels, upto)
		if sync != nil {
			sync(upto)
		}
		now = upto
	}
}

// runEpoch runs every kernel to upto concurrently and waits for all.
func runEpoch(kernels []*sim.Kernel, upto sim.Time) {
	var wg sync.WaitGroup
	for _, k := range kernels {
		wg.Add(1)
		go advance(k, upto, &wg)
	}
	wg.Wait()
}

// advance is the epoch worker. It is a named function, not a literal, so
// it captures nothing: its own kernel, the barrier instant and the wait
// group are all an epoch goroutine can reach, which is the share-nothing
// contract RunEpochs' parity argument rests on.
func advance(k *sim.Kernel, upto sim.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	k.RunUntil(upto)
}
