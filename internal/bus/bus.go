// Package bus implements the IOrchestra inter-domain communication layer,
// the equivalent of XenBus in the paper's prototype (Sec. 4): domains
// register with the system store, obtain scoped handles to their own
// subtree, register watch callbacks, and exchange notifications over
// paired event-channel ports with a simulated delivery latency.
package bus

import (
	"fmt"
	"slices"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// Bus connects domains to the system store and to each other.
type Bus struct {
	k       *sim.Kernel
	st      *store.Store
	latency sim.Duration
	domains map[store.DomID]*Domain
	// notifications counts event-channel deliveries, for overhead accounting.
	notifications uint64
}

// New returns a bus over st with the given event-channel delivery latency.
func New(k *sim.Kernel, st *store.Store, eventLatency sim.Duration) *Bus {
	return &Bus{k: k, st: st, latency: eventLatency, domains: map[store.DomID]*Domain{}}
}

// Store exposes the underlying system store (the hypervisor-side modules
// use it directly; guests go through their Domain handle).
func (b *Bus) Store() *store.Store { return b.st }

// Register creates (or returns) the domain handle for dom, creating its
// store home directory as the toolstack would at domain creation.
func (b *Bus) Register(dom store.DomID) *Domain {
	if d, ok := b.domains[dom]; ok {
		return d
	}
	b.st.AddDomain(dom)
	// The cursor map is built here, not lazily in cursor(): that runs on
	// every operation, and a nil check plus literal there would allocate.
	d := &Domain{b: b, id: dom, home: store.DomainPath(dom), cursors: map[string]*store.Cursor{}}
	b.domains[dom] = d
	return d
}

// Unregister is Register's inverse, for a domain that has left the host:
// the bus forgets the handle, and with it the store nodes its cursors
// pin. The domain's store subtree is the toolstack's to remove; a handle
// someone still holds keeps working, and a later Register makes a fresh
// one.
func (b *Bus) Unregister(dom store.DomID) { delete(b.domains, dom) }

// Domains returns the ids of all registered domains in ascending order.
func (b *Bus) Domains() []store.DomID {
	out := make([]store.DomID, 0, len(b.domains))
	for id := range b.domains {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Notifications reports the number of event-channel deliveries so far.
func (b *Bus) Notifications() uint64 { return b.notifications }

// Domain is a handle scoped to one domain's view of the store.
type Domain struct {
	b    *Bus
	id   store.DomID
	home string // cached store.DomainPath(id); Path runs on every store op
	// cursors memoizes rel → pinned store cursors, the one per-domain
	// index: a domain touches a small fixed key set, so both the path
	// concatenation and the store's absolute-path resolution happen once
	// per key instead of once per operation — every typed op below is one
	// short-key map hit plus the cursor's liveness check, and the
	// concatenated string is the one the store's node keeps as its path.
	// Kernel-goroutine only, like every other store-facing structure.
	cursors map[string]*store.Cursor
}

// ID reports the domain id.
func (d *Domain) ID() store.DomID { return d.id }

// cursor returns (creating if needed) the pinned cursor for rel.
func (d *Domain) cursor(rel string) *store.Cursor {
	if c, ok := d.cursors[rel]; ok {
		return c
	}
	p := d.home
	if rel != "" {
		p = d.home + "/" + rel
	}
	c := d.b.st.CursorFor(p)
	d.cursors[rel] = c
	return c
}

// Path resolves a relative key to the domain's absolute store path.
func (d *Domain) Path(rel string) string {
	return d.cursor(rel).Path()
}

// Write sets a key within the domain's own subtree.
func (d *Domain) Write(rel, value string) error {
	return d.b.st.WriteCursor(d.id, d.cursor(rel), value)
}

// WriteBool sets a boolean key within the domain's own subtree.
func (d *Domain) WriteBool(rel string, v bool) error {
	return d.b.st.WriteBoolCursor(d.id, d.cursor(rel), v)
}

// WriteInt sets an integer key within the domain's own subtree.
func (d *Domain) WriteInt(rel string, v int64) error {
	return d.b.st.WriteIntCursor(d.id, d.cursor(rel), v)
}

// WriteFloat sets a float key within the domain's own subtree.
func (d *Domain) WriteFloat(rel string, v float64) error {
	return d.b.st.WriteFloatCursor(d.id, d.cursor(rel), v)
}

// Read reads a key from the domain's own subtree.
func (d *Domain) Read(rel string) (string, error) {
	return d.b.st.ReadCursor(d.id, d.cursor(rel))
}

// ReadBool reads a boolean key (false when absent).
func (d *Domain) ReadBool(rel string) (bool, error) {
	return d.b.st.ReadBoolCursor(d.id, d.cursor(rel))
}

// ReadFloat reads a float key with a default.
func (d *Domain) ReadFloat(rel string, def float64) (float64, error) {
	return d.b.st.ReadFloatCursor(d.id, d.cursor(rel), def)
}

// Watch registers a callback on a relative prefix of the domain's own
// subtree; fn receives the path relative to the domain root.
func (d *Domain) Watch(rel string, fn func(rel, value string)) (store.WatchID, error) {
	prefix := d.Path(rel)
	base := d.home + "/"
	return d.b.st.Watch(d.id, prefix, func(path, value string) {
		r := path
		if len(path) > len(base) && path[:len(base)] == base {
			r = path[len(base):]
		}
		fn(r, value)
	})
}

// Unwatch removes a previously registered watch.
func (d *Domain) Unwatch(id store.WatchID) { d.b.st.Unwatch(id) }

// Port is one end of an event channel. Notifications carry no payload
// (exactly as in Xen); data travels through the store or shared rings.
type Port struct {
	b       *Bus
	peer    *Port
	dom     store.DomID
	handler func()
	closed  bool
}

// NewChannel creates a bound pair of event-channel ports between two
// domains.
func (b *Bus) NewChannel(a, z store.DomID) (*Port, *Port) {
	pa := &Port{b: b, dom: a}
	pz := &Port{b: b, dom: z}
	pa.peer, pz.peer = pz, pa
	return pa, pz
}

// SetHandler installs the callback invoked when the peer notifies.
func (p *Port) SetHandler(fn func()) { p.handler = fn }

// Notify signals the peer port; its handler runs after the bus latency.
// Notifying a closed channel is a no-op, as the event is simply lost.
func (p *Port) Notify() {
	if p.closed || p.peer == nil || p.peer.closed {
		return
	}
	peer := p.peer
	p.b.notifications++
	p.b.k.After(p.b.latency, func() {
		if !peer.closed && peer.handler != nil {
			peer.handler()
		}
	})
}

// Close tears down this end; in-flight notifications to it are dropped.
func (p *Port) Close() { p.closed = true }

// String identifies the port for diagnostics.
func (p *Port) String() string { return fmt.Sprintf("port(dom%d)", p.dom) }
