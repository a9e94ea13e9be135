package cluster

import (
	"fmt"
	"testing"

	"iorchestra/internal/core"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// buildParityBed constructs a small multi-host scenario with real
// cross-layer traffic — bursty dirtying writers, guest drivers, and an
// Algorithm 1 manager per host — the same shape the repo benchmark's
// scale_10k_50h workload scales up. Construction is a pure function of the seed, so two calls build
// identical simulations.
func buildParityBed(seed uint64) *ParallelTestbed {
	rng := stats.NewStream(seed, "parity")
	tb := NewParallelTestbed(3, hypervisor.Config{}, rng)
	for h := 0; h < tb.Size(); h++ {
		k := tb.Kernel(h)
		m := core.NewManager(tb.Host(h), core.All(), core.ManagerConfig{}, rng.Fork(fmt.Sprintf("mgr%d", h)))
		for i := 0; i < 4; i++ {
			rt := tb.Host(h).CreateGuest(guest.Config{VCPUs: 1, MemBytes: 1 << 28},
				guest.DiskConfig{Name: "xvda", CacheConfig: pagecache.Config{
					DirtyRatio: 0.9, BackgroundRatio: 0.8,
				}})
			m.EnableGuest(rt)
			d := rt.G.Disk("xvda")
			p := rt.G.NewProcess(1)
			var write func()
			burst := 0
			write = func() {
				if burst == 0 {
					burst = 10
				}
				d.Write(p, 1<<20, nil)
				if burst--; burst > 0 {
					k.After(5*sim.Millisecond, write)
				} else {
					k.After(80*sim.Millisecond, write)
				}
			}
			k.After(sim.Duration(1+i)*sim.Millisecond, write)
		}
	}
	return tb
}

// TestRunEpochsParity pins the claim RunEpochs's doc makes: because the
// per-host kernels share nothing, the epoch-barrier parallel run is
// event-for-event identical to advancing the same kernels sequentially
// — same event counts, same clocks, same store contents — regardless of
// epoch length or goroutine interleaving.
func TestRunEpochsParity(t *testing.T) {
	const seed = 11
	const target = 500 * sim.Millisecond

	seq := buildParityBed(seed)
	for _, k := range seq.Kernels() {
		k.RunUntil(target)
	}

	for _, epoch := range []sim.Duration{7 * sim.Millisecond, 50 * sim.Millisecond, target} {
		par := buildParityBed(seed)
		RunEpochs(par.Kernels(), target, epoch, nil)
		for i := range par.Kernels() {
			pk, sk := par.Kernel(i), seq.Kernel(i)
			if pk.Now() != sk.Now() {
				t.Fatalf("epoch %v host %d: clock %v, sequential %v", epoch, i, pk.Now(), sk.Now())
			}
			if pk.Executed() != sk.Executed() {
				t.Fatalf("epoch %v host %d: executed %d events, sequential %d",
					epoch, i, pk.Executed(), sk.Executed())
			}
			ph, sh := par.Host(i).Store(), seq.Host(i).Store()
			if ph.Version() != sh.Version() {
				t.Fatalf("epoch %v host %d: store version %d, sequential %d",
					epoch, i, ph.Version(), sh.Version())
			}
			if ph.SubtreeHash("/") != sh.SubtreeHash("/") {
				t.Fatalf("epoch %v host %d: store content hash diverged from sequential run", epoch, i)
			}
		}
	}

	// The barrier sync callback observes every epoch boundary, in order,
	// with all kernels quiescent at exactly that instant.
	par := buildParityBed(seed)
	var barriers []sim.Time
	RunEpochs(par.Kernels(), target, 64*sim.Millisecond, func(upto sim.Time) {
		for i, k := range par.Kernels() {
			if k.Now() > upto {
				t.Fatalf("host %d ran past the %v barrier to %v", i, upto, k.Now())
			}
		}
		barriers = append(barriers, upto)
	})
	if len(barriers) == 0 || barriers[len(barriers)-1] != target {
		t.Fatalf("barriers %v do not end at target %v", barriers, target)
	}
	for i := 1; i < len(barriers); i++ {
		if barriers[i] <= barriers[i-1] {
			t.Fatalf("barriers not ascending: %v", barriers)
		}
	}
}
