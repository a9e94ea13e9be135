package store

import (
	"errors"
	"fmt"
	"testing"

	"iorchestra/internal/sim"
)

// treeNode resolves path the way the index must agree with: by name,
// down the child lists from the root. nil when path names no node.
func treeNode(s *Store, path string) *node {
	n := s.root
	for _, name := range split(path) {
		c := n.kids
		for c != nil && c.name() != name {
			c = c.next
		}
		if c == nil {
			return nil
		}
		n = c
	}
	return n
}

// countNodes counts the nodes reachable from the root.
func countNodes(s *Store) int {
	var count func(n *node) int
	count = func(n *node) int {
		total := 1
		for c := n.kids; c != nil; c = c.next {
			total += count(c)
		}
		return total
	}
	return count(s.root)
}

// A create makes every level under that level's own path, and each of
// those paths is a slice of the written one: a
// seven-level create with only its leaf new allocates the node and no
// path string (a node, a cache entry and that entry's tokenized path read
// 4 here; rebuilding the path level by level on top of that, 10). A
// cursor's create does not index the leaf, so it allocates the node
// alone; either way the leaf resolves by path to the node the write made.
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
	before := countNodes(s)
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
	if got := countNodes(s) - before; got != len(paths) {
		t.Fatalf("%d leaf creates made %d nodes, want one each", len(paths), got)
	}
	for _, p := range paths {
		if n := treeNode(s, p); n == nil || n.value != "v" {
			t.Fatalf("%s: the tree holds %v, want the written leaf", p, n)
		}
	}
	checkIndex(t, s, "after leaf creates")

	// The same through cursors, in a directory of its own.
	dir = DiskPath(3, "xvdb", "q")
	cursors := make([]Cursor, runs+1)
	for i := range cursors {
		cursors[i] = CursorAt(fmt.Sprintf("%s/k%04d", dir, i))
	}
	s.Write(3, dir, "")
	i = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if err := s.WriteCursor(3, &cursors[i], "v"); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("a seven-level leaf create through a cursor allocates %.1f times, want the node alone", allocs)
	}
	checkIndex(t, s, "after cursor leaf creates")
	for i := range cursors {
		if c := &cursors[i]; treeNode(s, c.path) != c.n || !c.n.live() || s.lookup(c.path) != c.n {
			t.Fatalf("%s: the cursor pins %p, the tree holds %p", c.path, c.n, treeNode(s, c.path))
		}
	}
	checkIndex(t, s, "after every cursor-made leaf was resolved by path")

	// All seven levels new: every level is made under its own path.
	_, s = newTestStore()
	if err := s.Write(Dom0, "/a/bb/ccc/d/ee/fff/g", "v"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/a/bb", "/a/bb/ccc", "/a/bb/ccc/d", "/a/bb/ccc/d/ee", "/a/bb/ccc/d/ee/fff", "/a/bb/ccc/d/ee/fff/g"} {
		if n := treeNode(s, p); n == nil || s.index[p] != n {
			t.Fatalf("%s: the tree holds %v, the index %v; want one node, indexed", p, n, s.index[p])
		}
	}
	if got := countNodes(s); got != 8 {
		t.Fatalf("a seven-level create left %d nodes, want the root and seven", got)
	}
	checkIndex(t, s, "after a seven-level create")
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
// of 10,000 guests loses its subtree, every node of that subtree is dead
// and none of its paths resolves, a cursor into it re-pins on the
// recreated key, every sibling keeps its node — and the cost does not
// know how big the store is: a removal among 10,000 guests and one among
// 16 take comparable time (the scan this replaced visited all 90,000
// entries per Remove: 2 ms against 1.4 µs).
func TestRemoveWalksOnlyItsSubtree(t *testing.T) {
	const guests = 10_000
	s := manyDomains(guests)
	victim, sibling := DomID(5000), DomID(5001)
	var doomed []*node // virt-dev, its two disks and their four keys each
	var collect func(n *node)
	collect = func(n *node) {
		doomed = append(doomed, n)
		for c := n.kids; c != nil; c = c.next {
			collect(c)
		}
	}
	collect(treeNode(s, DomainPath(victim)+"/virt-dev"))
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
	if len(doomed) != 11 {
		t.Fatalf("the removed subtree held %d nodes, want 11", len(doomed))
	}
	for _, n := range doomed {
		if n.live() || s.lookup(n.path) != nil {
			t.Fatalf("%s still live or resolving after its subtree was removed", n.path)
		}
	}
	for _, disk := range []string{"xvda", "xvdb"} {
		for _, key := range []string{"nr_dirty", "flush_now", "congested", "release_request"} {
			p := DiskPath(victim, disk, key)
			if _, err := s.Read(Dom0, p); !errors.Is(err, ErrNoEntry) {
				t.Fatalf("Read(%s) = %v after the remove, want ErrNoEntry", p, err)
			}
		}
	}
	if _, err := s.ReadCursor(Dom0, cur); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("a cursor into the removed subtree reads %v, want ErrNoEntry", err)
	}
	if p := DomainPath(victim) + "/io/weight/0"; s.lookup(p) == nil || s.lookup(p) != treeNode(s, p) {
		t.Fatalf("%s, outside the removed subtree, no longer resolves to its node", p)
	}
	if v, err := s.ReadCursor(Dom0, sibCur); err != nil || v != "0" || sibCur.n != sibNode {
		t.Fatalf("the sibling's cursor re-pinned to a different node (%q, %v)", v, err)
	}
	if err := s.WriteCursor(victim, cur, "1"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadCursor(Dom0, cur); err != nil || v != "1" || cur.n != treeNode(s, gone) || !cur.n.live() {
		t.Fatalf("the cursor did not re-pin on the recreated key (%q, %v)", v, err)
	}
	checkIndex(t, s, "after a cursor recreated a key among 10k guests")
	if s.lookup(gone) != cur.n {
		t.Fatalf("%s, recreated through a cursor, does not resolve by path to the cursor's node", gone)
	}
	checkIndex(t, s, "after remove and recreate among 10k guests")

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
// their path, never the dead one; so does a create in a directory that
// was removed and recreated. Every write lands once: one value, one version step, one
// watch event, and a tree the index agrees with.
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
		n := treeNode(s, c.path)
		if n == nil || c.n != n || !n.live() || n.value != value || n.version != v0+1 || s.Version() != v0+1 {
			t.Fatalf("%s: handle holds %p, the index %p (value %q at version %d), store at version %d, was %d", what, c.n, n, n.value, n.version, s.Version(), v0)
		}
		if got := events[n0:]; len(got) != 1 || got[0] != c.path+"="+value {
			t.Fatalf("%s: watch events %q, want the one write", what, got)
		}
		if v, err := s.Read(Dom0, c.path); err != nil || v != value {
			t.Fatalf("%s: Read = %q, %v", what, v, err)
		}
		checkIndex(t, s, what)
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
		checkIndex(t, s, "after removing "+path)
	}

	step("first use of the key handle", keyCur, 4, "1")
	step("first use of the sibling handle", sibCur, 4, "0")
	step("first use of the home handle", homeCur, 4, "up")
	dead := [...]*node{homeCur.n, keyCur.n, sibCur.n, treeNode(s, disk)}

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
	// The sibling is created in the new disk directory, not in the dead
	// one of the same path.
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

	// A directory dies between two creates in it.
	old := treeNode(s, disk)
	remove(disk)
	if err := s.Write(4, disk+"/congested", "0"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	checkIndex(t, s, "a create in a directory recreated under its old path")
	if n := treeNode(s, disk); n == nil || n == old || !n.live() || treeNode(s, disk+"/congested") == nil {
		t.Fatal("the create resolved from the dead directory")
	}
}

// A create the writer has no right to is refused at the creation point
// with one error text, whichever way the path was resolved — by path, by
// handle, in a directory a create just used or not — and leaves
// nothing behind.
func TestCreateRefusedTheSameEitherWay(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	s.Write(1, DomainPath(1)+"/a/seed", "")
	for _, path := range []string{DomainPath(1) + "/a/k", DomainPath(1) + "/b/c/k", DomainPath(1) + "/k"} {
		want := fmt.Sprintf("store: permission denied: dom2 creating under %s", path)
		nodes, v := countNodes(s), s.Version()
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
		if countNodes(s) != nodes || s.Version() != v {
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
	checkIndex(t, s, "after refused creates")
}
