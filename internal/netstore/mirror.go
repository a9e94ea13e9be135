package netstore

import (
	"fmt"
	"strings"

	"iorchestra/internal/store"
)

// SyncPair is one path in a sync reply: a current value, or a removal
// marker the client must prune (including everything below the path).
type SyncPair struct {
	Path    string
	Value   string
	Removed bool
}

// SyncResult is the outcome of one OpSync round trip.
type SyncResult struct {
	// Mode is SyncMatch, SyncDelta or SyncFull.
	Mode uint8
	// Version and Hash anchor the next sync: the store version and the
	// subtree's rolling content hash at reply time.
	Version uint64
	Hash    uint64
	// Pairs carries the delta (SyncDelta) or the full subtree (SyncFull);
	// empty for SyncMatch.
	Pairs []SyncPair
}

// SyncSubtree asks the server how a domain subtree has changed since the
// (version, hash) pair from a previous sync or bootstrap. root must be a
// /local/domain/<id> subtree root.
func (c *Client) SyncSubtree(root string, sinceVersion, knownHash uint64) (SyncResult, error) {
	var res SyncResult
	d, err := c.call(OpSync, func(e *enc) {
		e.str(root)
		e.u64(sinceVersion)
		e.u64(knownHash)
	})
	if err != nil {
		return res, err
	}
	res.Mode = d.u8()
	res.Version = d.u64()
	res.Hash = d.u64()
	n := d.u32()
	res.Pairs = make([]SyncPair, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		p := d.str()
		removed := d.u8() == 1
		v := d.str()
		res.Pairs = append(res.Pairs, SyncPair{Path: p, Value: v, Removed: removed})
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

// Root reports the mirrored subtree root.
func (m *Mirror) Root() string { return m.root }

// Version reports the server version anchor from the last Sync.
func (m *Mirror) Version() uint64 { return m.version }

// Hash reports the subtree hash from the last Sync.
func (m *Mirror) Hash() uint64 { return m.hash }

// Len reports the number of mirrored nodes.
func (m *Mirror) Len() int { return len(m.nodes) }

// Get reads a mirrored node by absolute path.
func (m *Mirror) Get(path string) (string, bool) {
	v, ok := m.nodes[path]
	return v, ok
}

// Nodes returns a copy of the mirrored subtree.
func (m *Mirror) Nodes() map[string]string {
	out := make(map[string]string, len(m.nodes))
	for k, v := range m.nodes {
		out[k] = v
	}
	return out
}

// Sync brings the mirror up to date with one round trip and reports the
// mode the server chose (SyncMatch, SyncDelta or SyncFull).
func (m *Mirror) Sync() (uint8, error) {
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
	switch res.Mode {
	case SyncMatch:
		// Nothing moved; keep the cache.
	case SyncDelta:
		for _, p := range res.Pairs {
			if p.Removed {
				m.prune(p.Path)
			} else {
				m.nodes[p.Path] = p.Value
			}
		}
	case SyncFull:
		m.nodes = make(map[string]string, len(res.Pairs))
		for _, p := range res.Pairs {
			m.nodes[p.Path] = p.Value
		}
	default:
		return 0, fmt.Errorf("%w: unknown sync mode %d", ErrBadRequest, res.Mode)
	}
	m.version = res.Version
	m.hash = res.Hash
	m.synced = true
	return res.Mode, nil
}

// prune removes a path and its whole subtree from the cache (removal
// markers journal only the subtree root).
func (m *Mirror) prune(path string) {
	delete(m.nodes, path)
	prefix := path + "/"
	for p := range m.nodes {
		if strings.HasPrefix(p, prefix) {
			delete(m.nodes, p)
		}
	}
}

var _ = store.Root // keep the store import anchored for docs references
