package baselines

import (
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/store"
)

// SDC configures static dedicated I/O cores: one polling core per socket,
// every VM's requests routed to its home socket's core (the "all VCPUs on
// the same socket" assumption of the original framework), and static
// equal time shares on each core. It owns no runtime logic beyond
// enforcing the equal quanta — precisely the rigidity IOrchestra's
// Algorithm 3 replaces.
type SDC struct {
	h *hypervisor.Host
	// EqualQuantum is the static per-VM DRR quantum in bytes.
	EqualQuantum float64
}

// NewSDC wraps a host that must have been built with ModeDedicated and
// RouteBySocket=false.
func NewSDC(h *hypervisor.Host) *SDC {
	return &SDC{h: h, EqualQuantum: 256 << 10}
}

// Attach is the core.Controller lifecycle entry (see EnableGuest).
func (s *SDC) Attach(rt *hypervisor.GuestRuntime) { s.EnableGuest(rt) }

// Detach is a no-op: the static quantum is harmless once the guest stops
// submitting, and SDC keeps no other per-guest state.
func (s *SDC) Detach(dom store.DomID) {}

// EnableGuest applies the static equal share for a VM on every core (the
// original scheme gives each VM the same quantum regardless of load or
// priority).
func (s *SDC) EnableGuest(rt *hypervisor.GuestRuntime) {
	for _, c := range s.h.IOCores() {
		c.SetQuantum(rt.G.ID(), s.EqualQuantum)
	}
}
