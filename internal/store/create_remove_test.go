package store

import (
	"errors"
	"fmt"
	"testing"

	"iorchestra/internal/sim"
)

// A create journals and hashes every level it makes under that level's
// own path, and each of those paths is a slice of the written one: a
// seven-level create with only its leaf new allocates the node and no
// path string (a node, a cache entry and that entry's tokenized path read
// 4 here; rebuilding the path level by level on top of that, 10).
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
	// The node; the rest is the amortized growth of the index.
	if allocs > 2 {
		t.Fatalf("a seven-level leaf create allocates %.1f times, want at most 2", allocs)
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
// them: per domain, a home, two disks of four keys and a weight
// directory.
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

// Remove cleans the index by walking the subtree it deletes. After one
// of 10,000 guests loses its subtree, none of that subtree's paths
// resolves, a cursor into it re-pins on the recreated key, every sibling
// keeps its node — and the cost does not know how big the store
// is: a removal among 10,000 guests and one among 16 take comparable
// time (the scan this replaced visited all 90,000 entries per Remove:
// 2 ms against 1.4 µs).
func TestRemoveWalksOnlyItsSubtree(t *testing.T) {
	const guests = 10_000
	s := manyDomains(guests)
	indexed := len(s.index)
	victim, sibling := DomID(5000), DomID(5001)
	gone := DiskPath(victim, "xvdb", "flush_now")
	cur, sibCur := s.CursorFor(gone), s.CursorFor(DiskPath(sibling, "xvdb", "flush_now"))
	for _, c := range []*Cursor{cur, sibCur} {
		if _, err := s.ReadCursor(Dom0, c); err != nil || c.n == nil {
			t.Fatalf("cursor on %s did not pin: %v", c.Path(), err)
		}
	}
	sibNode := sibCur.n

	if err := s.Remove(Dom0, DomainPath(victim)+"/virt-dev"); err != nil {
		t.Fatal(err)
	}
	// virt-dev, its two disks and their four keys each are what goes.
	if got, want := len(s.index), indexed-11; got != want {
		t.Fatalf("%d indexed paths after the remove, want %d (the subtree's nodes, no more, no fewer)", got, want)
	}
	for _, disk := range []string{"xvda", "xvdb"} {
		for _, key := range []string{"nr_dirty", "flush_now", "congested", "release_request"} {
			p := DiskPath(victim, disk, key)
			if s.index[p] != nil {
				t.Fatalf("%s still indexed after its subtree was removed", p)
			}
			if _, err := s.Read(Dom0, p); !errors.Is(err, ErrNoEntry) {
				t.Fatalf("Read(%s) = %v after the remove, want ErrNoEntry", p, err)
			}
		}
	}
	if _, err := s.ReadCursor(Dom0, cur); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("a cursor into the removed subtree reads %v, want ErrNoEntry", err)
	}
	if p := DomainPath(victim) + "/io/weight/0"; s.index[p] == nil {
		t.Fatalf("%s, outside the removed subtree, lost its entry", p)
	}
	if v, err := s.ReadCursor(Dom0, sibCur); err != nil || v != "0" || sibCur.n != sibNode {
		t.Fatalf("the sibling's cursor re-pinned to a different node (%q, %v)", v, err)
	}
	if err := s.WriteCursor(victim, cur, "1"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadCursor(Dom0, cur); err != nil || v != "1" || cur.n != s.index[gone] {
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

// A pinned node must not outlive its path. Handles taken before a Remove
// — on a domain home, on a key under it, on a key removed alone under a
// live home — resolve again and reach the node a later create put under
// their path, never the dead one; so does the directory the create path
// remembers. Every write lands once: one value, one version step, one
// watch event, and hashes that match a recount.
func TestHandleSurvivesRemoveRecreate(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(4)
	home, disk := DomainPath(4), DomainPath(4)+"/virt-dev/xvda"
	var events []string
	if _, err := s.Watch(Dom0, home, func(p, v string) { events = append(events, p+"="+v) }); err != nil {
		t.Fatal(err)
	}
	homeCur, keyCur, sibCur := s.CursorFor(home), s.CursorFor(disk+"/nr_dirty"), s.CursorFor(disk+"/flush_now")
	step := func(what string, c *Cursor, dom DomID, value string) {
		t.Helper()
		v0, n0 := s.Version(), len(events)
		if err := s.WriteCursor(dom, c, value); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		k.Run()
		n := s.index[c.path]
		if n == nil || c.n != n || !n.live() || n.value != value || n.version != v0+1 || s.Version() != v0+1 {
			t.Fatalf("%s: handle holds %p, the index %p (value %q at version %d), store at version %d, was %d", what, c.n, n, n.value, n.version, s.Version(), v0)
		}
		if got := events[n0:]; len(got) != 1 || got[0] != c.path+"="+value {
			t.Fatalf("%s: watch events %q, want the one write", what, got)
		}
		if v, err := s.Read(Dom0, c.path); err != nil || v != value {
			t.Fatalf("%s: Read = %q, %v", what, v, err)
		}
		checkHashes(t, s, what)
	}
	remove := func(path string) {
		t.Helper()
		n0 := len(events)
		if err := s.Remove(Dom0, path); err != nil {
			t.Fatal(err)
		}
		if k.Run(); len(events) != n0+1 || events[n0] != path+"=" {
			t.Fatalf("removing %s: watch events %q", path, events[n0:])
		}
		checkHashes(t, s, "after removing "+path)
	}

	step("first use of the key handle", keyCur, 4, "1")
	step("first use of the sibling handle", sibCur, 4, "0")
	step("first use of the home handle", homeCur, 4, "up")
	dead := [...]*node{homeCur.n, keyCur.n, sibCur.n, s.index[disk]}

	// The whole domain goes and comes back: AddDomain puts a fresh home
	// under the old path, and the key handles recreate their chain.
	remove(home)
	for _, n := range dead {
		if n.live() || n.kids != nil {
			t.Fatalf("%s is still attached after its domain was removed", n.path)
		}
	}
	if _, err := s.ReadCursor(Dom0, keyCur); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("a handle into the removed domain reads %v, want ErrNoEntry", err)
	}
	s.AddDomain(4)
	step("home handle after remove + AddDomain", homeCur, 4, "back")
	step("key handle after remove + AddDomain", keyCur, 4, "2")
	// The create above remembered the new disk directory; the sibling is
	// created in it, not in the dead one of the same path.
	step("sibling handle after remove + AddDomain", sibCur, 4, "1")
	for i, c := range []*Cursor{homeCur, keyCur, sibCur} {
		if c.n == dead[i] {
			t.Fatalf("the handle on %s still holds the dead node", c.path)
		}
	}
	if got, _ := s.List(Dom0, disk); fmt.Sprint(got) != "[flush_now nr_dirty]" {
		t.Fatalf("List(%s) = %v", disk, got)
	}

	// One key goes and comes back under a live home, by path; the handle
	// follows, and its sibling's handle never noticed.
	sibNode := sibCur.n
	remove(keyCur.path)
	if err := s.Write(4, keyCur.path, "by-path"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	events = events[:0]
	step("key handle after its key was removed and rewritten", keyCur, 4, "3")
	step("sibling handle beside it", sibCur, 4, "2")
	if sibCur.n != sibNode {
		t.Fatal("the sibling's handle re-pinned though its node never went away")
	}

	// The remembered directory itself dies between two creates in it.
	if s.dir != s.index[disk] {
		t.Fatalf("the last create was in %s, the store remembers %s", disk, s.dir.path)
	}
	remove(disk)
	if err := s.Write(4, disk+"/congested", "0"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	checkHashes(t, s, "a create in a directory recreated under the remembered path")
	if s.dir != s.index[disk] || !s.dir.live() {
		t.Fatal("the create resolved from the dead directory")
	}
}

// A create the writer has no right to is refused at the creation point
// with one error text, whichever way the path was resolved — by path, by
// handle, with the directory remembered or probed for — and leaves
// nothing behind.
func TestCreateRefusedTheSameEitherWay(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	s.Write(1, DomainPath(1)+"/a/seed", "") // the store now remembers /local/domain/1/a
	for _, path := range []string{DomainPath(1) + "/a/k", DomainPath(1) + "/b/c/k", DomainPath(1) + "/k"} {
		want := fmt.Sprintf("store: permission denied: dom2 creating under %s", path)
		indexed, v := len(s.index), s.Version()
		byPath := s.Write(2, path, "x")
		byHandle := s.WriteCursor(2, s.CursorFor(path), "x")
		txn := s.Begin(2)
		txn.Write(path, "x")
		byTxn := txn.Commit()
		for how, err := range map[string]error{"by path": byPath, "by handle": byHandle, "in a transaction": byTxn} {
			if !errors.Is(err, ErrPermission) || err.Error() != want {
				t.Errorf("create of %s %s: %v, want %q", path, how, err, want)
			}
		}
		if len(s.index) != indexed || s.Version() != v {
			t.Errorf("a refused create of %s left nodes or a version behind", path)
		}
	}
	// A home recreated by Dom0's write is Dom0's: its guest is refused
	// under it exactly as a stranger is.
	s.Remove(Dom0, DomainPath(2))
	s.Write(Dom0, DomainPath(2)+"/planted", "")
	path := DomainPath(2) + "/virt-dev/xvda/nr_dirty"
	want := fmt.Sprintf("store: permission denied: dom2 creating under %s", path)
	if err := s.WriteCursor(2, s.CursorFor(path), "0"); err == nil || err.Error() != want {
		t.Errorf("guest create under a Dom0-owned home: %v, want %q", err, want)
	}
	checkHashes(t, s, "after refused creates")
}
