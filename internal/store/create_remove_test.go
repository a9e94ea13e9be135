package store

import (
	"errors"
	"fmt"
	"testing"

	"iorchestra/internal/sim"
)

// A create journals and hashes every level it makes under that level's
// own path, and each of those paths is a slice of the written one: a
// seven-level create with only its leaf new allocates the node, its
// cache entry and that entry's parts, and no path string (rebuilding the
// path level by level read 10 here: one string per level on top).
func TestSevenLevelCreateAllocs(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(3)
	dir := DiskPath(3, "xvda", "q") // /local/domain/3/virt-dev/xvda/q: six levels
	const runs = 512
	paths := make([]string, runs+1) // AllocsPerRun warms up with one extra call
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/k%04d", dir, i)
	}
	s.Write(3, dir, "")
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := s.Write(3, paths[i], "v"); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The node, the pathEntry, its parts; the rest is the amortized growth
	// of the directory's map, the path cache and the journal.
	if allocs > 4 {
		t.Fatalf("a seven-level leaf create allocates %.1f times, want at most 4", allocs)
	}
	deltas, ok := s.DeltasSince(s.Version() - 1)
	if !ok || len(deltas) != 1 || deltas[0].Path != paths[runs] {
		t.Fatalf("the last create journalled %v, want its leaf alone", deltas)
	}
	checkHashes(t, s, "after leaf creates")

	// All seven levels new: every level is journalled under its own path.
	_, s = newTestStore()
	if err := s.Write(Dom0, "/a/bb/ccc/d/ee/fff/g", "v"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ChangesSince(0)
	want := []string{"/a", "/a/bb", "/a/bb/ccc", "/a/bb/ccc/d", "/a/bb/ccc/d/ee", "/a/bb/ccc/d/ee/fff", "/a/bb/ccc/d/ee/fff/g"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a seven-level create journalled %v, want %v", got, want)
	}
	checkHashes(t, s, "after a seven-level create")
}

// manyDomains builds a store of n guest subtrees the way bring-up leaves
// them, every key cached: per domain, a home, two disks of four keys and
// a weight directory.
func manyDomains(n int) *Store {
	s := New(sim.NewKernel(), 0)
	for d := 1; d <= n; d++ {
		dom := DomID(d)
		s.AddDomain(dom)
		for _, disk := range []string{"xvda", "xvdb"} {
			for _, key := range []string{"nr_dirty", "flush_now", "congested", "release_request"} {
				s.Write(dom, DiskPath(dom, disk, key), "0")
			}
		}
		s.Write(dom, DomainPath(dom)+"/io/weight/0", "1")
	}
	return s
}

// removeRestore is the benchmark body behind the Remove cost line:
// remove one guest's device subtree from a store of that many guests,
// put a key back so the next lap over the guests finds it again.
func removeRestore(b *testing.B, s *Store, guests int) {
	for i := 0; i < b.N; i++ {
		dom := DomID(1 + i%guests)
		if err := s.Remove(Dom0, DomainPath(dom)+"/virt-dev"); err != nil {
			b.Fatal(err)
		}
		s.Write(dom, DiskPath(dom, "xvda", "nr_dirty"), "0")
	}
}

// Remove cleans the path cache by walking the subtree it deletes. After
// one of 10,000 guests loses its subtree, none of that subtree's paths
// resolves, a cursor into it re-pins on the recreated key, every sibling
// still hits the cache — and the cost does not know how big the store
// is: a removal among 10,000 guests and one among 16 take comparable
// time (the scan this replaced visited all 90,000 entries per Remove:
// 2 ms against 1.4 µs).
func TestRemoveWalksOnlyItsSubtree(t *testing.T) {
	const guests = 10_000
	s := manyDomains(guests)
	cached := len(s.pathCache)
	victim, sibling := DomID(5000), DomID(5001)
	gone := DiskPath(victim, "xvdb", "flush_now")
	cur, sibCur := s.CursorFor(gone), s.CursorFor(DiskPath(sibling, "xvdb", "flush_now"))
	for _, c := range []*Cursor{cur, sibCur} {
		if _, err := s.ReadCursor(Dom0, c); err != nil || c.e == nil {
			t.Fatalf("cursor on %s did not pin: %v", c.Path(), err)
		}
	}
	sibEntry := sibCur.e

	if err := s.Remove(Dom0, DomainPath(victim)+"/virt-dev"); err != nil {
		t.Fatal(err)
	}
	// virt-dev itself was never written or read as a key, so it had no
	// entry: the two disks' four keys each are what goes.
	if got, want := len(s.pathCache), cached-8; got != want {
		t.Fatalf("%d cached paths after the remove, want %d (the subtree's keys, no more, no fewer)", got, want)
	}
	for _, disk := range []string{"xvda", "xvdb"} {
		for _, key := range []string{"nr_dirty", "flush_now", "congested", "release_request"} {
			p := DiskPath(victim, disk, key)
			if s.pathCache[p] != nil {
				t.Fatalf("%s still cached after its subtree was removed", p)
			}
			if _, err := s.Read(Dom0, p); !errors.Is(err, ErrNoEntry) {
				t.Fatalf("Read(%s) = %v after the remove, want ErrNoEntry", p, err)
			}
		}
	}
	if _, err := s.ReadCursor(Dom0, cur); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("a cursor into the removed subtree reads %v, want ErrNoEntry", err)
	}
	if p := DomainPath(victim) + "/io/weight/0"; s.pathCache[p] == nil {
		t.Fatalf("%s, outside the removed subtree, lost its entry", p)
	}
	if v, err := s.ReadCursor(Dom0, sibCur); err != nil || v != "0" || sibCur.e != sibEntry {
		t.Fatalf("the sibling's cursor re-pinned to a different entry (%q, %v)", v, err)
	}
	if err := s.WriteCursor(victim, cur, "1"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadCursor(Dom0, cur); err != nil || v != "1" || cur.e != s.pathCache[gone] {
		t.Fatalf("the cursor did not re-pin on the recreated key (%q, %v)", v, err)
	}
	checkHashes(t, s, "after remove and recreate among 10k guests")

	// No wall clock in this package's tests (the determinism pass), so the
	// two stores are timed by the benchmark runner.
	perOp := func(s *Store, guests int) float64 {
		res := testing.Benchmark(func(b *testing.B) { removeRestore(b, s, guests) })
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	big, small := perOp(s, guests), perOp(manyDomains(16), 16)
	t.Logf("remove + restore: %.0f ns among %d guests, %.0f ns among 16", big, guests, small)
	if big > 25*small {
		t.Fatalf("removing a subtree costs %.0f ns among %d guests and %.0f ns among 16: Remove is visiting the whole store again", big, guests, small)
	}
}

// BenchmarkRemoveOneOf10kDomains is the cost line behind the test above:
// remove one guest's device subtree from a 10,000-guest store and put a
// key back.
func BenchmarkRemoveOneOf10kDomains(b *testing.B) {
	s := manyDomains(10_000)
	b.ResetTimer()
	removeRestore(b, s, 10_000)
}
