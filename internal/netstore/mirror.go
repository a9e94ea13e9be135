package netstore

import (
	"fmt"
	"strings"

	"iorchestra/internal/store"
)

// SyncSubtree asks the server how a domain subtree has changed since the
// (version, hash) pair from a previous sync or bootstrap: one OpSync
// round trip carrying store.SyncSubtree's reply. root must be a
// /local/domain/<id> subtree root.
func (c *Client) SyncSubtree(root string, sinceVersion, knownHash uint64) (store.SyncPage, error) {
	var res store.SyncPage
	d, err := c.call(&req{op: OpSync, path: root, since: sinceVersion, known: knownHash}, nil)
	if err != nil {
		return res, err
	}
	res.Mode = store.SyncMode(d.u8())
	res.Version = d.u64()
	res.Hash = d.u64()
	n := d.count(9) // a pair costs two length prefixes and a flag at least
	res.Pairs = make([]store.SyncPair, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		// Cloned, not views of the reply: pages are folded into mirrors that
		// live for the connection, where one surviving path of each delta
		// would pin that delta's whole reply.
		p := strings.Clone(d.str())
		removed := d.u8() == 1
		v := strings.Clone(d.str())
		res.Pairs = append(res.Pairs, store.SyncPair{Path: p, Value: v, Removed: removed})
	}
	return res, d.done()
}

// Mirror is a client-side cache of one domain subtree kept current with
// cheap reconnect syncs: each Sync round trip costs nothing when the
// subtree is unchanged (hash match), a minimal delta while the server's
// mutation journal covers the mirror's age, and a full snapshot only
// beyond that window.
//
// A Mirror is not safe for concurrent use; drive it from one goroutine
// (watch callbacks run on the client's dispatcher goroutine, so either
// sync from there or don't mix the two).
type Mirror struct {
	c    *Client
	root string

	version uint64
	hash    uint64
	nodes   map[string]string
	synced  bool
}

// NewMirror creates an empty mirror of a domain subtree root (e.g.
// store.DomainPath(dom)). The first Sync populates it.
func (c *Client) NewMirror(root string) *Mirror {
	return &Mirror{c: c, root: root, nodes: map[string]string{}}
}

// Len reports the number of mirrored nodes.
func (m *Mirror) Len() int { return len(m.nodes) }

// Get reads a mirrored node by absolute path.
func (m *Mirror) Get(path string) (string, bool) {
	v, ok := m.nodes[path]
	return v, ok
}

// Sync brings the mirror up to date with one round trip and reports the
// mode the server chose.
func (m *Mirror) Sync() (store.SyncMode, error) {
	since, known := m.version, m.hash
	if !m.synced {
		// Fresh mirror: a since beyond any real version forces the full
		// walk (the server refuses to delta from the future), and the
		// sentinel hash avoids a spurious match against an empty cache.
		since = ^uint64(0)
		known = ^uint64(0)
	}
	res, err := m.c.SyncSubtree(m.root, since, known)
	if err != nil {
		return 0, err
	}
	if res.Mode > store.SyncFull {
		return 0, fmt.Errorf("%w: unknown sync mode %d", ErrBadRequest, res.Mode)
	}
	m.nodes = res.Apply(m.nodes)
	m.version = res.Version
	m.hash = res.Hash
	m.synced = true
	return res.Mode, nil
}
