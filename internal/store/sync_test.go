package store

import (
	"fmt"
	"reflect"
	"testing"
)

// recomputeBuckets walks the whole tree and rebuilds the per-subtree
// hash map from scratch — the oracle the incremental bookkeeping in
// Write/Remove/AddDomain must always agree with.
func recomputeBuckets(s *Store) map[string]uint64 {
	got := map[string]uint64{}
	var walk func(parts []string, path string, n *node)
	walk = func(parts []string, path string, n *node) {
		if path != "" {
			got[bucketOf(parts)] ^= nodeHash(path, n.value)
		}
		for name, child := range n.children {
			walk(append(parts, name), path+"/"+name, child)
		}
	}
	walk(nil, "", s.root)
	for b, h := range got {
		if h == 0 {
			delete(got, b) // cancelled buckets match an absent map entry
		}
	}
	return got
}

func checkHashes(t *testing.T, s *Store, when string) {
	t.Helper()
	want := recomputeBuckets(s)
	have := map[string]uint64{}
	for b, h := range s.subHashes {
		if *h != 0 {
			have[b] = *h
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
	for _, h := range s.subHashes {
		all ^= *h
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

func TestChangesSinceReportsMutatedPaths(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	v0 := s.Version()
	s.Write(Dom0, "/local/domain/1/b", "1")
	s.Write(Dom0, "/local/domain/1/a/deep", "2")
	s.Write(Dom0, "/local/domain/1/b", "3") // dedup with the first write
	paths, ok := s.ChangesSince(v0)
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
		t.Fatalf("ChangesSince = %v, want %v", paths, want)
	}

	vMid := s.Version()
	s.Remove(Dom0, "/local/domain/1/a")
	paths, ok = s.ChangesSince(vMid)
	if !ok || !reflect.DeepEqual(paths, []string{"/local/domain/1/a"}) {
		t.Fatalf("ChangesSince after remove = %v, %v; want just the subtree root", paths, ok)
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
	if _, ok := s.ChangesSince(v0); ok {
		t.Fatal("journal claims to cover a version older than its window")
	}
	// The most recent window must still be answerable.
	vRecent := s.Version()
	s.Write(Dom0, "/local/domain/1/k00", "again")
	paths, ok := s.ChangesSince(vRecent)
	if !ok || !reflect.DeepEqual(paths, []string{"/local/domain/1/k00"}) {
		t.Fatalf("recent ChangesSince = %v, %v", paths, ok)
	}
	if _, ok := s.ChangesSince(s.Version()); !ok {
		t.Fatal("ChangesSince(current) must always be answerable")
	}
}

func TestAddDomainAfterRemoveIsJournalled(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(7)
	s.Write(Dom0, "/local/domain/7/key", "v")
	s.Remove(Dom0, DomainPath(7))
	v := s.Version()
	s.AddDomain(7)
	paths, ok := s.ChangesSince(v)
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
