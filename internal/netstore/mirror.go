package netstore

import (
	"fmt"
	"strings"

	"iorchestra/internal/store"
)

// SyncSubtree asks the server how a domain subtree has changed since the
// (version, hash) pair from a previous sync or bootstrap: one OpSync
// round trip carrying store.SyncSubtree's reply. root must be a
// /local/domain/<id> subtree root. A reply whose mode is none of
// store.SyncMatch, SyncDelta and SyncFull fails with ErrBadRequest.
//
// A caller keeps its copy of the subtree current by folding each page in
// with SyncPage.Apply and presenting the page's Version and Hash next
// time. A first sync presents ^0, ^0 — sentinels no live store reaches —
// and receives the whole readable subtree.
func (c *Client) SyncSubtree(root string, sinceVersion, knownHash uint64) (store.SyncPage, error) {
	var res store.SyncPage
	d, err := c.call(&req{op: OpSync, path: root, since: sinceVersion, known: knownHash}, nil)
	if err != nil {
		return res, err
	}
	res.Mode = store.SyncMode(d.u8())
	if res.Mode > store.SyncFull {
		return store.SyncPage{}, fmt.Errorf("%w: unknown sync mode %d", ErrBadRequest, res.Mode)
	}
	res.Version = d.u64()
	res.Hash = d.u64()
	n := d.count(9) // a pair costs two length prefixes and a flag at least
	res.Pairs = make([]store.SyncPair, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		// Cloned, not views of the reply: a page is folded into a copy of
		// the subtree that outlives the reply, where one surviving path of
		// each delta would pin that delta's whole reply.
		p := strings.Clone(d.str())
		removed := d.u8() == 1
		v := strings.Clone(d.str())
		res.Pairs = append(res.Pairs, store.SyncPair{Path: p, Value: v, Removed: removed})
	}
	return res, d.done()
}
