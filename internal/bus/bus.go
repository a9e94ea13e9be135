// Package bus implements the IOrchestra inter-domain communication layer,
// the equivalent of XenBus in the paper's prototype (Sec. 4): domains
// register with the system store, obtain scoped handles to their own
// subtree, register watch callbacks, and exchange notifications over
// paired event-channel ports with a simulated delivery latency.
package bus

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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

// Register creates (or returns) the domain handle for dom, creating its
// store home directory as the toolstack would at domain creation.
func (b *Bus) Register(dom store.DomID) *Domain {
	if d, ok := b.domains[dom]; ok {
		return d
	}
	b.st.AddDomain(dom)
	d := &Domain{b: b, id: dom, home: store.DomainPath(dom)}
	b.domains[dom] = d
	return d
}

// Unregister is Register's inverse, for a domain that has left the host:
// the bus forgets the handle, and with it the store nodes its memoized
// cursors pin. The domain's store subtree is the toolstack's to remove; a handle
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
	home string // store.DomainPath(id), the root of every key below
	// cursors memoizes rel → pinned store cursors for WriteBool and
	// WriteInt: a caller that names its keys by string gets both the path
	// concatenation and the store's absolute-path resolution once per key
	// instead of once per operation, and the concatenated string is the
	// one the store's node keeps as its path. Made on first use, so a
	// caller that holds its own cursors (Keys) never builds one.
	// Kernel-goroutine only, like every other store-facing structure.
	cursors map[string]*store.Cursor
}

// abs returns the absolute path of rel, the home itself for "".
func (d *Domain) abs(rel string) string {
	if rel == "" {
		return d.home
	}
	return d.home + "/" + rel
}

// cursor returns (creating if needed) the memoized cursor for rel.
func (d *Domain) cursor(rel string) *store.Cursor {
	if c, ok := d.cursors[rel]; ok {
		return c
	}
	if d.cursors == nil {
		d.cursors = map[string]*store.Cursor{}
	}
	c := d.b.st.CursorFor(d.abs(rel))
	d.cursors[rel] = c
	return c
}

// WriteBool sets a boolean key within the domain's own subtree.
func (d *Domain) WriteBool(rel string, v bool) error {
	return d.b.st.WriteBoolCursor(d.id, d.cursor(rel), v)
}

// WriteInt sets an integer key within the domain's own subtree.
func (d *Domain) WriteInt(rel string, v int64) error {
	return d.b.st.WriteIntCursor(d.id, d.cursor(rel), v)
}

// Home is the domain's subtree root, store.DomainPath of its id.
func (d *Domain) Home() string { return d.home }

// Watch registers a callback on a relative prefix of the domain's own
// subtree; fn receives the path relative to the domain root.
func (d *Domain) Watch(rel string, fn func(rel, value string)) (store.WatchID, error) {
	return d.b.st.Watch(d.id, d.abs(rel), func(path, value string) {
		r := path
		if len(path) > len(d.home) && path[len(d.home)] == '/' && path[:len(d.home)] == d.home {
			r = path[len(d.home)+1:]
		}
		fn(r, value)
	})
}

// Unwatch removes a previously registered watch.
func (d *Domain) Unwatch(id store.WatchID) { d.b.st.Unwatch(id) }

// Keys builds the paths of a key table under one domain's home into a
// single string and points each of the caller's cursors at its slice of
// it: the driver registers a guest's keys once, at attach (Fig. 2), and
// the whole table costs that one string. Each path is given as pieces, so
// no relative-key string is built either. The store nodes the cursors
// create keep their slices as their paths, so the string lives as long as
// the guest's nodes do.
//
// The caller adds its keys in a loop, for ks.Next() { ks.Add(…); … },
// whose body must add the same keys in the same order on every turn and
// do nothing else: Next runs it three times — to measure the string, to
// write it, and to cut it — so the string is bought once, at its exact
// size, and nothing else is.
type Keys struct {
	home string
	pass int             // turns of the caller's loop so far: 1 measure, 2 write, 3 cut
	n    int             // measure: bytes so far; cut: where the next path starts
	b    strings.Builder // write
	s    string          // cut
}

// Keys starts a key table under the domain's home.
func (d *Domain) Keys() Keys { return Keys{home: d.home} }

// Next starts the next turn of the caller's loop, and reports false once
// the cursors are cut.
func (ks *Keys) Next() bool {
	switch ks.pass {
	case 1:
		ks.b.Grow(ks.n)
	case 2:
		ks.s, ks.n = ks.b.String(), 0
	case 3:
		return false
	}
	ks.pass++
	return true
}

// Add adds c's path, home/<parts...> with the parts concatenated.
func (ks *Keys) Add(c *store.Cursor, parts ...string) {
	if ks.pass == 2 {
		ks.b.WriteString(ks.home)
		ks.b.WriteByte('/')
		for _, p := range parts {
			ks.b.WriteString(p)
		}
		return
	}
	n := len(ks.home) + 1
	for _, p := range parts {
		n += len(p)
	}
	ks.step(c, n)
}

// AddIndex adds c's path home/<prefix>/<i>, i in decimal: one per-socket
// key.
func (ks *Keys) AddIndex(c *store.Cursor, prefix string, i int) {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	if ks.pass == 2 {
		ks.b.WriteString(ks.home)
		ks.b.WriteByte('/')
		ks.b.WriteString(prefix)
		ks.b.WriteByte('/')
		ks.b.Write(d)
		return
	}
	ks.step(c, len(ks.home)+1+len(prefix)+1+len(d))
}

// step accounts for one path of n bytes: measured, or cut for c.
func (ks *Keys) step(c *store.Cursor, n int) {
	if ks.pass == 3 {
		*c = store.CursorAt(ks.s[ks.n : ks.n+n])
	}
	ks.n += n
}

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
