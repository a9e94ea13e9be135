package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// nodeHash is the per-node content hash from scratch: what a node's cached
// term must always equal.
func nodeHash(path, value string) uint64 {
	return mixString(pathHashState(path), value)
}

// split tokenizes a path the way the store did before paths were matched
// as strings; the oracles below still reason segment by segment.
func split(path string) []string {
	if path == "/" {
		return nil
	}
	return strings.Split(path[1:], "/")
}

// recomputeBuckets walks the whole tree and rebuilds the per-subtree
// hash map from scratch — the oracle the incremental bookkeeping in
// Write/Remove/AddDomain must always agree with. On the way it checks
// the tree against the index: every node reachable from the root is live,
// is called by the path its parent and name give it, holds its subtree's
// bucket and a hash term that matches its value, and is either the
// index's entry for that path or absent from the index and counted as
// unindexed, in its bucket and store-wide — a structural node or domain
// home always indexed. The index holds nothing else: no dead node.
func recomputeBuckets(t *testing.T, s *Store) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	indexed, unindexed := 0, map[*bucket]int{}
	var walk func(path string, n *node)
	walk = func(path string, n *node) {
		parts := split(path)
		key := ""
		if len(parts) >= 3 && parts[0] == "local" && parts[1] == "domain" {
			key = parts[2]
		}
		switch in := s.index[path]; {
		case n.path != path:
			t.Fatalf("node reached as %s calls itself %s", path, n.path)
		case in == n:
			indexed++
		case in != nil:
			t.Fatalf("the index holds %p for %s, the tree %p", in, path, n)
		case len(parts) <= 3:
			t.Fatalf("%s, structural or a domain home, is not indexed", path)
		default:
			unindexed[n.b]++
		}
		switch {
		case n.b == nil || n.b != s.buckets[key]:
			t.Fatalf("%s holds bucket %p, want bucket %q (%p)", path, n.b, key, s.buckets[key])
		case n != s.root && n.hval != nodeHash(path, n.value): // the root is in no hash
			t.Fatalf("%s caches hash term %#x for value %q, want %#x", path, n.hval, n.value, nodeHash(path, n.value))
		}
		if path != "/" {
			got[key] ^= nodeHash(path, n.value)
			path += "/"
		}
		var prev *node
		for c := n.kids; c != nil; prev, c = c, c.next {
			if c.prev != prev {
				t.Fatalf("child list of %s is broken at %s", n.path, c.path)
			}
			walk(path+c.name(), c)
		}
	}
	walk("/", s.root)
	if indexed != len(s.index) {
		t.Fatalf("%d nodes reachable from the root are indexed, the index holds %d", indexed, len(s.index))
	}
	total := 0
	for key, b := range s.buckets {
		if b.unindexed != unindexed[b] {
			t.Fatalf("bucket %q counts %d unindexed nodes, the tree holds %d", key, b.unindexed, unindexed[b])
		}
		total += b.unindexed
	}
	if s.unindexed != total {
		t.Fatalf("the store counts %d unindexed nodes, its buckets %d", s.unindexed, total)
	}
	for b, h := range got {
		if h == 0 {
			delete(got, b) // cancelled buckets match an absent map entry
		}
	}
	return got
}

func checkHashes(t *testing.T, s *Store, when string) {
	t.Helper()
	want := recomputeBuckets(t, s)
	have := map[string]uint64{}
	for key, b := range s.buckets {
		if b.hash != 0 {
			have[key] = b.hash
		}
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("%s: incremental hashes %v, recomputed %v", when, have, want)
	}
}

func TestSubtreeHashTracksMutations(t *testing.T) {
	_, s := newTestStore()
	s.EnsureRoot()
	checkHashes(t, s, "after EnsureRoot")

	s.AddDomain(3)
	checkHashes(t, s, "after AddDomain")

	if err := s.Write(Dom0, "/local/domain/3/virt-dev/xvda/congested", "1"); err != nil {
		t.Fatal(err)
	}
	checkHashes(t, s, "after deep creating write")

	before := s.SubtreeHash("/local/domain/3")
	if err := s.Write(Dom0, "/local/domain/3/virt-dev/xvda/congested", "0"); err != nil {
		t.Fatal(err)
	}
	checkHashes(t, s, "after overwrite")
	if s.SubtreeHash("/local/domain/3") == before {
		t.Fatal("overwrite did not change the subtree hash")
	}

	// Same path, same value → same hash as before the overwrite.
	if err := s.Write(Dom0, "/local/domain/3/virt-dev/xvda/congested", "1"); err != nil {
		t.Fatal(err)
	}
	if s.SubtreeHash("/local/domain/3") != before {
		t.Fatal("hash is not content-determined: same content, different hash")
	}

	if err := s.Remove(Dom0, "/local/domain/3/virt-dev"); err != nil {
		t.Fatal(err)
	}
	checkHashes(t, s, "after subtree remove")

	// A dropped write still persists created intermediates (and an empty
	// leaf), which must enter the hash so sync clients converge.
	s.SetFaultHooks(&FaultHooks{DropWrite: func(DomID, string) bool { return true }})
	if err := s.Write(Dom0, "/local/domain/3/ghost/key", "lost"); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHooks(nil)
	checkHashes(t, s, "after dropped creating write")
	if v, err := s.Read(Dom0, "/local/domain/3/ghost/key"); err != nil || v != "" {
		t.Fatalf("dropped write leaf = %q, %v; want empty persisted node", v, err)
	}
}

func TestSubtreeHashRoots(t *testing.T) {
	_, s := newTestStore()
	s.EnsureRoot()
	s.AddDomain(1)
	s.AddDomain(2)
	s.Write(Dom0, "/local/domain/1/a", "x")
	s.Write(Dom0, "/local/domain/2/b", "y")

	var all uint64
	for _, b := range s.buckets {
		all ^= b.hash
	}
	for _, root := range []string{"/", "/local", "/local/domain"} {
		if got := s.SubtreeHash(root); got != all {
			t.Errorf("SubtreeHash(%q) = %#x, want XOR of all buckets %#x", root, got, all)
		}
	}
	if got := s.SubtreeHash("/local/domain/1/a"); got != 0 {
		t.Errorf("SubtreeHash below a bucket root = %#x, want 0 (untracked)", got)
	}
	if got := s.SubtreeHash("not-a-path"); got != 0 {
		t.Errorf("SubtreeHash of a bad path = %#x, want 0", got)
	}
}

// changesSince is DeltasSince flattened to just the touched paths.
func changesSince(s *Store, v uint64) (paths []string, ok bool) {
	deltas, ok := s.DeltasSince(v)
	if !ok {
		return nil, false
	}
	for _, d := range deltas {
		paths = append(paths, d.Path)
	}
	return paths, true
}

func TestChangesSinceReportsMutatedPaths(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	v0 := s.Version()
	s.Write(Dom0, "/local/domain/1/b", "1")
	s.Write(Dom0, "/local/domain/1/a/deep", "2")
	s.Write(Dom0, "/local/domain/1/b", "3") // dedup with the first write
	paths, ok := changesSince(s, v0)
	if !ok {
		t.Fatal("journal should cover v0")
	}
	want := []string{
		// AddDomain journals the home at version+1 (it does not bump the
		// version), so an anchor taken right after it re-reads the home —
		// redundant but harmless.
		"/local/domain/1",
		"/local/domain/1/a",      // created intermediate
		"/local/domain/1/a/deep", // created leaf
		"/local/domain/1/b",
	}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("changesSince = %v, want %v", paths, want)
	}

	vMid := s.Version()
	s.Remove(Dom0, "/local/domain/1/a")
	paths, ok = changesSince(s, vMid)
	if !ok || !reflect.DeepEqual(paths, []string{"/local/domain/1/a"}) {
		t.Fatalf("changesSince after remove = %v, %v; want just the subtree root", paths, ok)
	}
}

func TestChangesSinceJournalWindow(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.SetJournalCap(8)
	v0 := s.Version()
	for i := 0; i < 64; i++ {
		s.Write(Dom0, fmt.Sprintf("/local/domain/1/k%02d", i), "v")
	}
	if _, ok := changesSince(s, v0); ok {
		t.Fatal("journal claims to cover a version older than its window")
	}
	// The most recent window must still be answerable.
	vRecent := s.Version()
	s.Write(Dom0, "/local/domain/1/k00", "again")
	paths, ok := changesSince(s, vRecent)
	if !ok || !reflect.DeepEqual(paths, []string{"/local/domain/1/k00"}) {
		t.Fatalf("recent changesSince = %v, %v", paths, ok)
	}
	if _, ok := changesSince(s, s.Version()); !ok {
		t.Fatal("changesSince(current) must always be answerable")
	}
}

// The journal is a ring. Filled to exactly its capacity it has evicted
// nothing; one entry more and the oldest is gone, and only it; after
// three laps the window is still the last cap entries. DeltasSince
// refuses exactly the versions an evicted entry is newer than — never the
// current one — and what it reports is what a journal that never forgot
// would.
func TestJournalRingWraps(t *testing.T) {
	const cap = 8
	type entry struct {
		version uint64
		path    string
	}
	for _, entries := range []int{cap - 1, cap, cap + 1, 3 * cap, 3*cap + 5} {
		_, s := newTestStore()
		s.SetJournalCap(cap)
		var all []entry // the journal that never forgets
		for i := 0; len(all) < entries; i++ {
			p := fmt.Sprintf("/k%d", i%3)
			s.Write(Dom0, p, "v")
			if i < 3 { // a create journals its level, then the write: six entries up front
				all = append(all, entry{s.Version(), p})
			}
			all = append(all, entry{s.Version(), p})
		}
		if len(s.journal) != min(entries, cap) {
			t.Fatalf("%d entries: ring holds %d, want %d", entries, len(s.journal), min(entries, cap))
		}
		evicted := all[:max(0, entries-cap)]
		for since := uint64(0); since <= s.Version(); since++ {
			deltas, ok := s.DeltasSince(since)
			wantOK := len(evicted) == 0 || evicted[len(evicted)-1].version <= since
			if ok != wantOK {
				t.Fatalf("%d entries: DeltasSince(%d) ok = %v, want %v", entries, since, ok, wantOK)
			}
			if !ok {
				continue
			}
			want := map[string]bool{}
			for _, e := range all {
				if e.version > since {
					want[e.path] = true
				}
			}
			if len(deltas) != len(want) {
				t.Fatalf("%d entries: DeltasSince(%d) = %v, want the paths %v", entries, since, deltas, want)
			}
			for _, d := range deltas {
				if !want[d.Path] || d.Removed {
					t.Fatalf("%d entries: DeltasSince(%d) = %v, want the paths %v", entries, since, deltas, want)
				}
			}
		}
		if _, ok := s.DeltasSince(s.Version()); !ok {
			t.Fatalf("%d entries: the current version is not answerable", entries)
		}
	}
}

// A capacity change mid-stream keeps the newest entries that fit, in
// order, and moves the window's edge when some do not.
func TestJournalCapChangeMidStream(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/k", "1") // version 1, journalled twice: the create, the write
	s.SetJournalCap(8)       // the default-sized ring becomes one of 8, both entries kept
	for v := 2; v <= 11; v++ {
		s.Write(Dom0, "/k", fmt.Sprint(v))
	}
	// Twelve entries: the ring holds versions 4..11 and has wrapped.
	if _, ok := s.DeltasSince(2); ok {
		t.Fatal("version 2 answerable though version 3's entry was evicted")
	}
	if _, ok := s.DeltasSince(3); !ok {
		t.Fatal("version 3 not answerable though everything after it is retained")
	}
	s.SetJournalCap(4) // shrink: versions 8..11 stay
	if _, ok := s.DeltasSince(6); ok {
		t.Fatal("after shrinking to 4, version 6 is still answerable")
	}
	if d, ok := s.DeltasSince(7); !ok || len(d) != 1 {
		t.Fatalf("after shrinking to 4, DeltasSince(7) = %v, %v", d, ok)
	}
	s.SetJournalCap(6) // grow: nothing comes back, nothing is lost, two more fit
	s.Write(Dom0, "/k", "12")
	s.Write(Dom0, "/k", "13")
	if d, ok := s.DeltasSince(7); !ok || len(d) != 1 || len(s.journal) != 6 {
		t.Fatalf("after growing to 6, DeltasSince(7) = %v, %v with %d entries held", d, ok, len(s.journal))
	}
	s.Write(Dom0, "/k", "14") // the seventh entry since version 7 takes version 8's slot
	if _, ok := s.DeltasSince(7); ok {
		t.Fatal("version 7 answerable after version 8's entry was evicted")
	}
	if d, ok := s.DeltasSince(8); !ok || len(d) != 1 || len(s.journal) != 6 {
		t.Fatalf("DeltasSince(8) = %v, %v with %d entries held", d, ok, len(s.journal))
	}
}

func TestAddDomainAfterRemoveIsJournalled(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(7)
	s.Write(Dom0, "/local/domain/7/key", "v")
	s.Remove(Dom0, DomainPath(7))
	v := s.Version()
	s.AddDomain(7)
	paths, ok := changesSince(s, v)
	if !ok {
		t.Fatal("journal should cover the re-add")
	}
	found := false
	for _, p := range paths {
		if p == DomainPath(7) {
			found = true
		}
	}
	if !found {
		t.Fatalf("re-created domain home missing from journal: %v", paths)
	}
	checkHashes(t, s, "after remove + re-add")
}

func TestEnsureRootIdempotent(t *testing.T) {
	_, s := newTestStore()
	s.EnsureRoot()
	h := s.SubtreeHash("/")
	v := s.Version()
	s.EnsureRoot()
	if s.SubtreeHash("/") != h || s.Version() != v {
		t.Fatal("second EnsureRoot changed state")
	}
	if !s.Exists("/local/domain") {
		t.Fatal("structural spine missing")
	}
	checkHashes(t, s, "after EnsureRoot x2")
}

func TestPathDomain(t *testing.T) {
	for p, want := range map[string]DomID{"/local/domain/12/virt-dev": 12, "/local/domain/5/a/b": 5, "/local/domain/0": 0} {
		if dom, ok := PathDomain(p); !ok || dom != want {
			t.Errorf("PathDomain(%q) = %d, %v; want %d", p, dom, ok, want)
		}
	}
	for _, p := range []string{"/local/domain", "/local/domain/", "/local/domain/x1", "/local", "/",
		"/local/domain/-3", "/other/local/domain/5", "/local/domainx/5"} {
		if _, ok := PathDomain(p); ok {
			t.Errorf("PathDomain(%q) should not resolve", p)
		}
	}
}

func TestWatchBuckets(t *testing.T) {
	k, s := newTestStore()
	var dom1, dom2, global, structural int
	s.Watch(Dom0, "/local/domain/1", func(path, value string) { dom1++ })
	s.Watch(Dom0, "/local/domain/2", func(path, value string) { dom2++ })
	s.Watch(Dom0, "/", func(path, value string) { global++ })
	s.Watch(Dom0, "/local", func(path, value string) { structural++ })

	s.Write(Dom0, "/local/domain/1/key", "a")
	s.Write(Dom0, "/local/domain/2/key", "b")
	s.Write(Dom0, "/other/key", "c")
	k.Run()

	if dom1 != 1 || dom2 != 1 {
		t.Fatalf("domain watches fired %d/%d, want 1/1", dom1, dom2)
	}
	if global != 3 {
		t.Fatalf("global watch fired %d, want 3", global)
	}
	if structural != 2 {
		t.Fatalf("/local watch fired %d, want 2 (both domain writes)", structural)
	}

	// Unwatch must drop the watch from its bucket, not just the id table.
	id, _ := s.Watch(Dom0, "/local/domain/1", func(path, value string) { dom1 += 100 })
	s.Unwatch(id)
	s.Write(Dom0, "/local/domain/1/key", "z")
	k.Run()
	if dom1 != 2 {
		t.Fatalf("dom1 fired %d after unwatch, want 2", dom1)
	}
}
