package store

import (
	"errors"
	"fmt"
	"slices"
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
// OpSync is its wire surface (docs/WIRE_PROTOCOL.md §6 documents the
// sequence).
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

// The per-node content hash covers path and value with a separator —
// mixString(pathHashState(path), value) — and is XOR-folded into the
// subtree hashes. XOR folding makes node insertion and removal O(1):
// adding and removing the same (path, value) cancel exactly. The hash is
// never persisted or compared across processes — a client's remembered
// hash only ever meets the same server's counter — so it needs collision
// resistance, not a fixed algorithm. It mixes 8-byte words per multiply
// instead of FNV's byte-at-a-time chain: value payloads dominate the
// bytes hashed on the write path, and the serial multiply per byte was
// the single hottest instruction in the store under load.

// pathHashState is the node-hash state after folding the path and the
// path/value separator — the per-path prefix of a node's hash. The node
// keeps it, so a write hashes only the new value.
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

// bucketOf maps a path to its bucket key: the owning domain's id segment
// (a substring of the path), or "" for structural nodes at or above the
// domain level. The short key is internal; SubtreeHash translates from
// the public /local/domain/<id> spelling.
func bucketOf(path string) string {
	const prefix = Root + "/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	id := path[len(prefix):]
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	return id
}

// SubtreeHash reports the rolling content hash of a subtree. root must
// be a /local/domain/<id> subtree root (the per-domain bucket), or "/",
// "/local" or "/local/domain" for the XOR of every bucket including the
// structural one. Hashes cover node paths and values, not permissions.
func (s *Store) SubtreeHash(root string) uint64 {
	if checkPath(root) != nil {
		return 0
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if id := bucketOf(root); id != "" {
		if b := s.buckets[id]; b != nil && len(root) == len(Root)+1+len(id) {
			return b.hash
		}
		return 0 // no such domain, or deeper than a bucket root: not tracked
	}
	var h uint64
	for _, b := range s.buckets {
		h ^= b.hash
	}
	return h
}

// SetJournalCap resizes the retained journal window (minimum 1), keeping
// the most recent entries that fit.
func (s *Store) SetJournalCap(n int) {
	n = max(n, 1)
	if s.journal != nil && n != s.journalCap {
		old := slices.Concat(s.journal[s.journalHead:], s.journal[:s.journalHead])
		if drop := len(old) - n; drop > 0 {
			s.evictedThrough = old[drop-1].version
			old = old[drop:]
		}
		s.journal, s.journalHead = append(make([]journalEntry, 0, n), old...), 0
	}
	s.journalCap = n
}

// journalAppend records a mutated path (removed marks subtree removals)
// in the ring, bought whole at first use. Once full, each append takes
// the oldest entry's slot, and evictedThrough remembers how far back
// DeltasSince can still answer.
func (s *Store) journalAppend(version uint64, path string, removed bool) {
	if s.journal == nil {
		if s.journalCap == 0 {
			s.journalCap = DefaultJournalCap
		}
		s.journal = make([]journalEntry, 0, s.journalCap)
	}
	e := journalEntry{version: version, path: path, removed: removed}
	if n := len(s.journal); n < s.journalCap {
		s.journal = s.journal[:n+1]
		s.journal[n] = e
		return
	}
	s.evictedThrough = s.journal[s.journalHead].version
	s.journal[s.journalHead] = e
	if s.journalHead++; s.journalHead == s.journalCap {
		s.journalHead = 0
	}
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
	// Dedupe does not care that the ring is read out of age order.
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
