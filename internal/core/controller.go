package core

import (
	"slices"

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

// sortedDomIDs appends a per-domain map's keys to dst in ascending order
// and returns the result. Policy loops iterate guests through it so
// fixed-seed runs replay identically: Go map order would otherwise leak
// into store-write order, and with it into the decision trace and every
// downstream timing.
func sortedDomIDs[V any](dst []store.DomID, m map[store.DomID]V) []store.DomID {
	n := len(dst)
	for dom := range m {
		dst = append(dst, dom)
	}
	slices.Sort(dst[n:])
	return dst
}
