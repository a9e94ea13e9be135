package store

import (
	"reflect"
	"strings"
	"testing"
)

// split tokenizes a path the way the store did before paths were matched
// as strings; the oracles below still reason segment by segment.
func split(path string) []string {
	if path == "/" {
		return nil
	}
	return strings.Split(path[1:], "/")
}

// checkIndex walks the whole tree and checks it against the index and the
// buckets: every node reachable from the root is live, is called by the
// path its parent and name give it, holds its subtree's bucket, and is
// either the index's entry for that path or absent from the index and
// counted as unindexed, in its bucket and store-wide — a structural node
// or domain home always indexed. The index holds nothing else: no dead
// node.
func checkIndex(t *testing.T, s *Store, when string) {
	t.Helper()
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
			t.Fatalf("%s: node reached as %s calls itself %s", when, path, n.path)
		case in == n:
			indexed++
		case in != nil:
			t.Fatalf("%s: the index holds %p for %s, the tree %p", when, in, path, n)
		case len(parts) <= 3:
			t.Fatalf("%s: %s, structural or a domain home, is not indexed", when, path)
		default:
			unindexed[n.b]++
		}
		if n.b == nil || n.b != s.buckets[key] {
			t.Fatalf("%s: %s holds bucket %p, want bucket %q (%p)", when, path, n.b, key, s.buckets[key])
		}
		if path != "/" {
			path += "/"
		}
		var prev *node
		for c := n.kids; c != nil; prev, c = c, c.next {
			if c.prev != prev {
				t.Fatalf("%s: child list of %s is broken at %s", when, n.path, c.path)
			}
			walk(path+c.name(), c)
		}
	}
	walk("/", s.root)
	if indexed != len(s.index) {
		t.Fatalf("%s: %d nodes reachable from the root are indexed, the index holds %d", when, indexed, len(s.index))
	}
	total := 0
	for key, b := range s.buckets {
		if b.unindexed != unindexed[b] {
			t.Fatalf("%s: bucket %q counts %d unindexed nodes, the tree holds %d", when, key, b.unindexed, unindexed[b])
		}
		total += b.unindexed
	}
	if s.unindexed != total {
		t.Fatalf("%s: the store counts %d unindexed nodes, its buckets %d", when, s.unindexed, total)
	}
}

// listing is every (path, value) pair readable by Dom0, read through the
// store's public surface: what two stores must agree on to hold the same
// tree.
func listing(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	var walk func(path string)
	walk = func(path string) {
		v, err := s.Read(Dom0, path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		out[path] = v
		names, err := s.List(Dom0, path)
		if err != nil {
			t.Fatalf("list %s: %v", path, err)
		}
		base := strings.TrimSuffix(path, "/") + "/"
		for _, name := range names {
			walk(base + name)
		}
	}
	walk("/")
	return out
}

// The index follows every way the tree changes shape: a domain home, a
// deep creating write, an overwrite, a subtree remove, a write the fault
// hook loses after its create, and a domain home removed and added back.
func TestIndexTracksMutations(t *testing.T) {
	_, s := newTestStore()
	s.EnsureRoot()
	checkIndex(t, s, "after EnsureRoot")

	s.AddDomain(3)
	checkIndex(t, s, "after AddDomain")

	if err := s.Write(Dom0, "/local/domain/3/virt-dev/xvda/congested", "1"); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s, "after deep creating write")

	if err := s.Write(Dom0, "/local/domain/3/virt-dev/xvda/congested", "0"); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s, "after overwrite")

	if err := s.Remove(Dom0, "/local/domain/3/virt-dev"); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, s, "after subtree remove")

	// A dropped write still persists created intermediates (and an empty
	// leaf).
	s.SetFaultHooks(&FaultHooks{DropWrite: func(DomID, string) bool { return true }})
	if err := s.Write(Dom0, "/local/domain/3/ghost/key", "lost"); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHooks(nil)
	checkIndex(t, s, "after dropped creating write")
	if v, err := s.Read(Dom0, "/local/domain/3/ghost/key"); err != nil || v != "" {
		t.Fatalf("dropped write leaf = %q, %v; want empty persisted node", v, err)
	}

	s.Write(Dom0, "/local/domain/3/key", "v")
	s.Remove(Dom0, DomainPath(3))
	checkIndex(t, s, "after removing the domain home")
	s.AddDomain(3)
	checkIndex(t, s, "after remove + re-add")
	if names, err := s.List(Dom0, DomainPath(3)); err != nil || len(names) != 0 {
		t.Fatalf("re-added home lists %v, %v; want an empty home", names, err)
	}
}

func TestEnsureRootIdempotent(t *testing.T) {
	_, s := newTestStore()
	s.EnsureRoot()
	tree, v := listing(t, s), s.Version()
	s.EnsureRoot()
	if got := listing(t, s); !reflect.DeepEqual(got, tree) || s.Version() != v {
		t.Fatalf("second EnsureRoot changed state: tree %v at version %d, was %v at %d", got, s.Version(), tree, v)
	}
	if !s.Exists("/local/domain") {
		t.Fatal("structural spine missing")
	}
	checkIndex(t, s, "after EnsureRoot x2")
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
