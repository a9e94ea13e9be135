package core

import (
	"sort"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Controller is the per-guest lifecycle a platform drives through the
// system it installs: the IOrchestra Manager, and the baselines' DIF and
// SDC. Attach installs whatever per-VM hooks the system needs when a
// guest is enabled; Detach forgets every piece of state about a removed
// guest and must be safe to call for guests that were never attached.
type Controller interface {
	Attach(rt *hypervisor.GuestRuntime)
	Detach(dom store.DomID)
}

// cadence is the shared tick scheduler: a lazy re-arming timer. arm is a
// no-op while a tick is pending; when the timer fires, tick runs and the
// cadence re-arms only if tick reports more work. The pattern keeps the
// event calendar empty when a policy has nothing to watch — the paper's
// management module "only reacts to certain system events".
type cadence struct {
	k      *sim.Kernel
	period sim.Duration
	tick   func() bool // run one tick; report whether to stay armed
	timer  *sim.Event
}

func (c *cadence) arm() {
	if c.timer != nil {
		return
	}
	c.timer = c.k.After(c.period, func() {
		c.timer = nil
		if c.tick() {
			c.arm()
		}
	})
}

// sortedDomIDs returns a per-domain map's keys in ascending order. Policy
// loops iterate guests through it so fixed-seed runs replay identically:
// Go map order would otherwise leak into store-write order, and with it
// into the decision trace and every downstream timing.
func sortedDomIDs[V any](m map[store.DomID]V) []store.DomID {
	out := make([]store.DomID, 0, len(m))
	for dom := range m {
		out = append(out, dom)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedNames returns a per-disk map's keys in ascending order, for the
// same determinism reason as sortedDomIDs.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
