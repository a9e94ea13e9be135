// Package cluster provides the multi-host testbed and the dynamic
// VM-arrival engine the paper's Sec. 5.3/5.5 experiments use: Poisson
// arrivals of randomly-sized VMs running a random application with a
// fixed problem size, served FIFO, with completion and throughput
// accounting.
package cluster

import (
	"fmt"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// Testbed is a set of hosts, each with its own storage array, connected
// by the model network (one-way latency folded into the app models).
type Testbed struct {
	k     *sim.Kernel
	hosts []*hypervisor.Host
}

// NewTestbed builds n identically configured hosts. Each host gets an
// independent RNG fork and its own device (cfg.Device must be nil so
// per-host arrays are created).
func NewTestbed(k *sim.Kernel, n int, cfg hypervisor.Config, rng *stats.Stream) *Testbed {
	if n <= 0 {
		n = 1
	}
	t := &Testbed{k: k}
	for i := 0; i < n; i++ {
		c := cfg
		c.Name = fmt.Sprintf("host%d", i)
		c.Device = nil
		t.hosts = append(t.hosts, hypervisor.New(k, c, rng.Fork(c.Name)))
	}
	return t
}

// Hosts exposes the members.
func (t *Testbed) Hosts() []*hypervisor.Host { return t.hosts }
