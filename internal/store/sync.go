package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// This file is the store's cheap-reconnect machinery (ISSUE 6): rolling
// per-subtree content hashes and a bounded mutation journal. Together
// they let a client that cached a subtree earlier catch up with a single
// round trip — a hash match means "nothing changed, keep your copy", a
// journal hit means "here are exactly the paths that moved", and only a
// journal miss (the client is older than the retained window) forces the
// full snapshot walk. SyncSubtree below is that decision; netstore's
// OpSync is its wire surface and federation.LocalView its in-process one
// (docs/WIRE_PROTOCOL.md §6 documents the sequence).
//
// Both structures are maintained incrementally inside Write/Remove/
// AddDomain on the kernel goroutine, so they follow the store's
// single-goroutine discipline and stay deterministic: same operation
// sequence, same hashes, same journal.

// DefaultJournalCap bounds the mutation journal: the store retains at
// least this many most-recent (version, path) entries. Reconnects older
// than the retained window fall back to a full snapshot.
const DefaultJournalCap = 4096

// journalEntry records one mutated path at one store version. removed
// marks subtree removals: a sync client must prune its copy of the
// subtree even if the path was later recreated (remove-then-recreate
// would otherwise leave the client holding children that died with the
// first incarnation).
type journalEntry struct {
	version uint64
	path    string
	removed bool
}

// Delta is one journal-window change as reported by DeltasSince: a path
// that was mutated, plus whether a subtree removal of it occurred
// anywhere in the window (the path may exist again now).
type Delta struct {
	Path    string
	Removed bool
}

// nodeHash is the per-node content hash over path and value with a
// separator, XOR-folded into subtree hashes. XOR folding makes node
// insertion and removal O(1): adding and removing the same (path, value)
// cancel exactly. The hash is never persisted or compared across
// processes — a client's remembered hash only ever meets the same
// server's counter — so it needs collision resistance, not a fixed
// algorithm. It mixes 8-byte words per multiply instead of FNV's
// byte-at-a-time chain: value payloads dominate the bytes hashed on the
// write path, and the serial multiply per byte was the single hottest
// instruction in the store under load.
func nodeHash(path, value string) uint64 {
	return mixString(pathHashState(path), value)
}

// pathHashState is the node-hash state after folding the path and the
// path/value separator — the per-path prefix of nodeHash. The path cache
// memoizes it so a hot-key write hashes only the old and new values.
func pathHashState(path string) uint64 {
	h := mixString(14695981039346656037, path)
	return mixWord(h, 0xa5) // path/value separator
}

// mixWord folds one 64-bit word into the running hash (FxHash-style
// rotate-xor-multiply).
func mixWord(h, k uint64) uint64 {
	h = (h<<5 | h>>59) ^ k
	return h * 0x517cc1b727220a95
}

// le64 loads eight bytes of s, little-endian, as one word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// mixString folds a string into the running hash 8 bytes at a time, with
// the length folded in so "ab"+"c" and "a"+"bc" cannot collide across
// the separator. One multiply waits for the one before it, so a string
// of 32 bytes or more — a written value — goes four words at a time
// through four lanes that do not wait for each other, folded back into
// one before the tail; every step is invertible in the word it takes, so
// a change to any one byte still changes the result.
//
// hotpath
func mixString(h uint64, s string) uint64 {
	h = mixWord(h, uint64(len(s)))
	if len(s) >= 32 {
		h1, h2, h3 := h^0x9e3779b97f4a7c15, h^0xc2b2ae3d27d4eb4f, h^0x165667b19e3779f9
		for ; len(s) >= 32; s = s[32:] {
			h = mixWord(h, le64(s))
			h1 = mixWord(h1, le64(s[8:]))
			h2 = mixWord(h2, le64(s[16:]))
			h3 = mixWord(h3, le64(s[24:]))
		}
		h = mixWord(mixWord(h, h1), mixWord(h2, h3))
	}
	for ; len(s) >= 8; s = s[8:] {
		h = mixWord(h, le64(s))
	}
	if len(s) > 0 {
		var k uint64
		for i := 0; i < len(s); i++ {
			k |= uint64(s[i]) << (8 * i)
		}
		h = mixWord(h, k)
	}
	return h
}

// bucketOf maps a path (as split parts) to its hash bucket: the owning
// domain's id segment (a substring of the path — no allocation on the
// write path), or "" for structural nodes at or above the domain level.
// The short key is internal; SubtreeHash translates from the public
// /local/domain/<id> spelling.
func bucketOf(parts []string) string {
	if len(parts) >= 3 && parts[0] == "local" && parts[1] == "domain" {
		return parts[2]
	}
	return ""
}

// noteNode folds one node's presence (or, called twice, a value change)
// into its subtree hash.
func (s *Store) noteNode(parts []string, path, value string) {
	*s.hashCell(bucketOf(parts)) ^= nodeHash(path, value)
}

// noteCreated folds the freshly created empty nodes of a Write to path
// (levels first..len(parts)-1 — creation cascades, so they are a suffix
// of the chain) into their subtree hashes and journals them at version
// v. parts is path tokenized, so level i's own path is a prefix of the
// caller's string: it is sliced at the running offset, never rebuilt —
// bringing a guest up is mostly leaf creates under an existing chain,
// and a concatenation per level was its largest allocation site.
func (s *Store) noteCreated(path string, parts []string, first int, v uint64) {
	end := 0
	for i, p := range parts {
		end += 1 + len(p)
		if i >= first {
			s.noteNode(parts[:i+1], path[:end], "")
			s.journalAppend(v, path[:end], false)
		}
	}
}

// dropSubtree folds a subtree out of the bucket hashes and the path
// cache ahead of its removal: the walk meets every node that dies with
// its one path, so the cache is cleaned in O(subtree), not by scanning
// every entry the store holds. XOR makes the traversal order irrelevant.
func (s *Store) dropSubtree(parts []string, path string, n *node) {
	s.noteNode(parts, path, n.value)
	delete(s.pathCache, path)
	for name, child := range n.children {
		s.dropSubtree(append(parts, name), path+"/"+name, child)
	}
}

// SubtreeHash reports the rolling content hash of a subtree. root must
// be a /local/domain/<id> subtree root (the per-domain bucket), or "/",
// "/local" or "/local/domain" for the XOR of every bucket including the
// structural one. Hashes cover node paths and values, not permissions.
func (s *Store) SubtreeHash(root string) uint64 {
	parts, err := split(root)
	if err != nil {
		return 0
	}
	if b := bucketOf(parts); b != "" {
		if len(parts) != 3 {
			return 0 // deeper than a bucket root: not tracked
		}
		if p := s.subHashes[b]; p != nil {
			return *p
		}
		return 0
	}
	var h uint64
	for _, v := range s.subHashes {
		h ^= *v
	}
	return h
}

// SetJournalCap resizes the retained journal window (minimum 1). It
// applies from the next mutation on.
func (s *Store) SetJournalCap(n int) {
	if n < 1 {
		n = 1
	}
	s.journalCap = n
}

// journalAppend records a mutated path (removed marks subtree
// removals). The ring is compacted in halves so appends stay amortized
// O(1); evictedThrough remembers how far back DeltasSince can still
// answer.
func (s *Store) journalAppend(version uint64, path string, removed bool) {
	cap := s.journalCap
	if cap <= 0 {
		cap = DefaultJournalCap
		s.journalCap = cap
	}
	if len(s.journal) >= 2*cap {
		s.evictedThrough = s.journal[len(s.journal)-cap-1].version
		s.journal = append(s.journal[:0], s.journal[len(s.journal)-cap:]...)
	}
	s.journal = append(s.journal, journalEntry{version: version, path: path, removed: removed})
}

// DeltasSince reports every path mutated after store version v, deduped
// and sorted, with ok=false when the journal no longer covers v (the
// caller must fall back to a full walk). A Delta's Removed flag is true
// when any subtree removal of the path happened in the window — the
// consumer must prune its copy before applying current state, because
// the path may have been recreated since and its old children are gone.
func (s *Store) DeltasSince(v uint64) (deltas []Delta, ok bool) {
	if v < s.evictedThrough {
		return nil, false
	}
	removed := map[string]bool{}
	var paths []string
	for _, e := range s.journal {
		if e.version <= v {
			continue
		}
		if _, dup := removed[e.path]; !dup {
			paths = append(paths, e.path)
		}
		removed[e.path] = removed[e.path] || e.removed
	}
	// Deterministic order for wire replies and tests.
	sort.Strings(paths)
	deltas = make([]Delta, len(paths))
	for i, p := range paths {
		deltas[i] = Delta{Path: p, Removed: removed[p]}
	}
	return deltas, true
}

// ChangesSince is DeltasSince flattened to just the touched paths.
func (s *Store) ChangesSince(v uint64) (paths []string, ok bool) {
	deltas, ok := s.DeltasSince(v)
	if !ok {
		return nil, false
	}
	paths = make([]string, len(deltas))
	for i, d := range deltas {
		paths[i] = d.Path
	}
	return paths, true
}

// SyncMode classifies a SyncSubtree reply, cheapest first. The values
// are the wire encoding of netstore's OpSync reply.
type SyncMode uint8

const (
	// SyncMatch: the caller's hash matches the subtree; nothing sent.
	SyncMatch SyncMode = 0
	// SyncDelta: the mutation journal covered the caller's version; the
	// reply carries exactly the paths that moved (with prune markers).
	SyncDelta SyncMode = 1
	// SyncFull: the caller predates the journal window; the reply is a
	// full permission-filtered subtree walk.
	SyncFull SyncMode = 2
)

// String names the mode for trace records.
func (m SyncMode) String() string {
	switch m {
	case SyncMatch:
		return "match"
	case SyncDelta:
		return "delta"
	default:
		return "full"
	}
}

// SyncPair is one path of a sync reply. Removed marks prune markers: the
// consumer must drop its copy of the subtree at Path before applying the
// value pairs that follow (the path may have been recreated since).
type SyncPair struct {
	Path    string
	Value   string
	Removed bool
}

// SyncPage is one hash-versioned subtree sync reply. Version and Hash —
// the store version and the subtree's rolling content hash at reply time
// — anchor the caller's next sync. Pairs carries the delta (SyncDelta)
// or the whole subtree (SyncFull) and is empty for SyncMatch.
type SyncPage struct {
	Mode    SyncMode
	Version uint64
	Hash    uint64
	Pairs   []SyncPair
}

// Apply folds the page into nodes, the caller's copy of the subtree, and
// returns the updated copy (a fresh map after SyncFull). Prune markers
// arrive first, so a removed-then-recreated path drops its stale
// children before its current value lands.
func (p SyncPage) Apply(nodes map[string]string) map[string]string {
	if p.Mode == SyncFull || nodes == nil {
		nodes = make(map[string]string, len(p.Pairs))
	}
	for _, kv := range p.Pairs {
		if !kv.Removed {
			nodes[kv.Path] = kv.Value
			continue
		}
		// Removal markers journal only the subtree root.
		delete(nodes, kv.Path)
		prefix := kv.Path + "/"
		for path := range nodes {
			if strings.HasPrefix(path, prefix) {
				delete(nodes, path)
			}
		}
	}
	return nodes
}

// SyncSubtree answers a catch-up request for one domain subtree as seen
// by dom. root must be a /local/domain/<id> subtree root. Three
// outcomes, cheapest first: the caller's hash matches (nothing to send),
// the journal still covers the caller's version (exactly the paths that
// moved), or the caller is older than the retained window (full
// permission-filtered walk).
func (s *Store) SyncSubtree(dom DomID, root string, since, known uint64) (SyncPage, error) {
	if owner, ok := PathDomain(root); !ok || root != DomainPath(owner) {
		return SyncPage{}, fmt.Errorf("sync root %q is not a domain subtree root", root)
	}
	page := SyncPage{Version: s.Version(), Hash: s.SubtreeHash(root)}
	if known == page.Hash {
		page.Mode = SyncMatch
		return page, nil
	}
	deltas, covered := s.DeltasSince(since)
	if !covered || since > page.Version {
		page.Mode = SyncFull
		s.Walk(dom, root, func(p, v string) {
			page.Pairs = append(page.Pairs, SyncPair{Path: p, Value: v})
		})
		return page, nil
	}
	page.Mode = SyncDelta
	// Prune markers lead the reply so the consumer drops stale subtrees
	// before applying current values — a path removed and then recreated
	// in the window carries both a marker and a value, in that order.
	var values []SyncPair
	prefix := root + "/"
	for _, dl := range deltas {
		p := dl.Path
		if p != root && !strings.HasPrefix(p, prefix) {
			continue
		}
		v, err := s.Read(dom, p)
		switch {
		case dl.Removed:
			page.Pairs = append(page.Pairs, SyncPair{Path: p, Removed: true})
			if err == nil {
				values = append(values, SyncPair{Path: p, Value: v})
			}
		case err == nil:
			values = append(values, SyncPair{Path: p, Value: v})
		case errors.Is(err, ErrNoEntry):
			page.Pairs = append(page.Pairs, SyncPair{Path: p, Removed: true})
		default:
			// Unreadable for this domain: not part of its view.
		}
	}
	page.Pairs = append(page.Pairs, values...)
	return page, nil
}

// Walk emits every node at or below root readable by dom, in
// deterministic (sorted-children) order.
func (s *Store) Walk(dom DomID, root string, emit func(path, value string)) {
	if v, err := s.Read(dom, root); err == nil {
		emit(root, v)
	}
	names, err := s.List(dom, root)
	if err != nil {
		return
	}
	base := root
	if base != "/" {
		base += "/"
	}
	for _, name := range names {
		s.Walk(dom, base+name, emit)
	}
}

// EnsureRoot creates the structural /local/domain chain without creating
// any domain home, so a snapshot of the tree root has its spine before
// the first handshake. Idempotent; netstore calls it at server start.
func (s *Store) EnsureRoot() {
	n := s.root
	path := ""
	for _, p := range []string{"local", "domain"} {
		path += "/" + p
		child := n.child(p)
		if child == nil {
			child = &node{owner: Dom0}
			if n.children == nil {
				n.children = map[string]*node{}
			}
			n.children[p] = child
			n.sorted = nil
			s.noteNode(strings.Split(path[1:], "/"), path, "")
		}
		n = child
	}
}
