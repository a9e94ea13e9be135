package store

import (
	"errors"
	"strconv"
	"sync"
	"testing"

	"iorchestra/internal/sim"
)

func newTestStore() (*sim.Kernel, *Store) {
	k := sim.NewKernel()
	return k, New(k, 10*sim.Microsecond)
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, s := newTestStore()
	if err := s.Write(Dom0, "/local/domain/1/virt-dev/xvda/congested", "1"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(Dom0, "/local/domain/1/virt-dev/xvda/congested")
	if err != nil || v != "1" {
		t.Fatalf("Read = %q, %v", v, err)
	}
}

func TestReadMissingEntry(t *testing.T) {
	_, s := newTestStore()
	_, err := s.Read(Dom0, "/nope")
	if !errors.Is(err, ErrNoEntry) {
		t.Fatalf("err = %v, want ErrNoEntry", err)
	}
}

func TestBadPaths(t *testing.T) {
	_, s := newTestStore()
	for _, p := range []string{"", "relative", "/a//b", "/a/"} {
		if err := s.Write(Dom0, p, "x"); !errors.Is(err, ErrBadPath) {
			t.Errorf("Write(%q) err = %v, want ErrBadPath", p, err)
		}
	}
	if err := s.Write(Dom0, "/", "x"); !errors.Is(err, ErrBadPath) {
		t.Errorf("writing root err = %v", err)
	}
}

func TestDomainIsolation(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	// Dom 1 sets up its own subtree.
	if err := s.Write(1, DomainPath(1)+"/virt-dev/xvda/nr", "42"); err != nil {
		t.Fatal(err)
	}
	// Dom 2 cannot read or write Dom 1's data.
	if _, err := s.Read(2, DomainPath(1)+"/virt-dev/xvda/nr"); !errors.Is(err, ErrPermission) {
		t.Fatalf("cross-domain read err = %v, want ErrPermission", err)
	}
	if err := s.Write(2, DomainPath(1)+"/virt-dev/xvda/nr", "0"); !errors.Is(err, ErrPermission) {
		t.Fatalf("cross-domain write err = %v, want ErrPermission", err)
	}
	// Dom0 can do both.
	if _, err := s.Read(Dom0, DomainPath(1)+"/virt-dev/xvda/nr"); err != nil {
		t.Fatalf("Dom0 read err = %v", err)
	}
	if err := s.Write(Dom0, DomainPath(1)+"/virt-dev/xvda/flush_now", "1"); err != nil {
		t.Fatalf("Dom0 write err = %v", err)
	}
	// And Dom 1 can read what Dom0 wrote in its subtree... only if it can
	// read the node; Dom0-created node under dom1's subtree is owned by
	// Dom0, so Dom0 must grant access.
	if _, err := s.Read(1, DomainPath(1)+"/virt-dev/xvda/flush_now"); !errors.Is(err, ErrPermission) {
		t.Fatalf("ungranted read err = %v, want ErrPermission", err)
	}
	if err := s.Grant(Dom0, DomainPath(1)+"/virt-dev/xvda/flush_now", 1, PermWrite); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Read(1, DomainPath(1)+"/virt-dev/xvda/flush_now"); err != nil || v != "1" {
		t.Fatalf("granted read = %q, %v", v, err)
	}
}

func TestGrantRequiresOwnerOrDom0(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	s.Write(1, "/local/domain/1/x", "v")
	if err := s.Grant(2, "/local/domain/1/x", 2, PermRead); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-owner Grant err = %v", err)
	}
	if err := s.Grant(1, "/local/domain/1/x", 2, PermRead); err != nil {
		t.Fatalf("owner Grant err = %v", err)
	}
	if _, err := s.Read(2, "/local/domain/1/x"); err != nil {
		t.Fatalf("granted read err = %v", err)
	}
	// Read grant does not allow writes.
	if err := s.Write(2, "/local/domain/1/x", "w"); !errors.Is(err, ErrPermission) {
		t.Fatalf("read-granted write err = %v", err)
	}
}

func TestRemoveSubtree(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/a/b/c", "1")
	s.Write(Dom0, "/a/b/d", "2")
	if err := s.Remove(Dom0, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/b/c") || s.Exists("/a/b") {
		t.Fatal("subtree survives removal")
	}
	if !s.Exists("/a") {
		t.Fatal("parent removed")
	}
	if err := s.Remove(Dom0, "/a/b"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestList(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/dir/z", "1")
	s.Write(Dom0, "/dir/a", "2")
	names, err := s.List(Dom0, "/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Fatalf("List = %v, want sorted [a z]", names)
	}
}

// TestChildrenIsTheIndex pins the List/Children contract: Children hands
// out the node's own sorted index — no allocation on a directory whose
// shape is settled — with List's names, errors and permission check; a
// List result is the caller's (writing it reaches nobody); and a slice
// taken before a shape change keeps the names it had.
func TestChildrenIsTheIndex(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	dir := DomainPath(1) + "/dir"
	for _, name := range []string{"z", "a", "m"} {
		s.Write(1, dir+"/"+name, name)
	}
	kids, err := s.Children(1, dir)
	if err != nil || len(kids) != 3 || kids[0] != "a" || kids[1] != "m" || kids[2] != "z" {
		t.Fatalf("Children = %v, %v, want sorted [a m z]", kids, err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Children(1, dir) }); n != 0 {
		t.Errorf("Children of a settled directory allocates %.0f times", n)
	}
	list, _ := s.List(1, dir)
	list[0] = "scribble"
	if again, _ := s.Children(1, dir); again[0] != "a" {
		t.Errorf("writing a List result reached the index: %v", again)
	}
	s.Write(1, dir+"/b", "b")
	if kids[1] != "m" {
		t.Errorf("a slice taken before the create changed under its holder: %v", kids)
	}
	if now, _ := s.Children(1, dir); len(now) != 4 || now[1] != "b" {
		t.Errorf("Children after a create = %v, want [a b m z]", now)
	}
	if _, err := s.Children(2, dir); !errors.Is(err, ErrPermission) {
		t.Errorf("dom2 listing dom1's directory: %v, want ErrPermission", err)
	}
	if _, err := s.Children(1, dir+"/nope"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("Children of a missing node: %v, want ErrNoEntry", err)
	}
	if leaf, err := s.Children(1, dir+"/a"); err != nil || len(leaf) != 0 {
		t.Errorf("Children of a leaf = %v, %v, want none", leaf, err)
	}
}

func TestWatchFiresAfterLatency(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(1)
	var gotPath, gotValue string
	var at sim.Time
	_, err := s.Watch(Dom0, "/local/domain/1", func(p, v string) {
		gotPath, gotValue, at = p, v, k.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.At(sim.Millisecond, func() {
		s.Write(1, "/local/domain/1/has_dirty_pages", "1")
	})
	k.Run()
	if gotPath != "/local/domain/1/has_dirty_pages" || gotValue != "1" {
		t.Fatalf("watch got (%q, %q)", gotPath, gotValue)
	}
	if want := sim.Millisecond + 10*sim.Microsecond; at != want {
		t.Fatalf("watch fired at %v, want %v", at, want)
	}
}

func TestWatchPrefixSemantics(t *testing.T) {
	k, s := newTestStore()
	count := 0
	s.Watch(Dom0, "/a/b", func(p, v string) { count++ })
	k.At(1, func() {
		s.Write(Dom0, "/a/b", "x")       // exact: fires
		s.Write(Dom0, "/a/b/c", "x")     // child: fires
		s.Write(Dom0, "/a/bb", "x")      // sibling with prefix string: must NOT fire
		s.Write(Dom0, "/a", "x")         // ancestor: must NOT fire
		s.Write(Dom0, "/other/b/c", "x") // unrelated: must NOT fire
	})
	k.Run()
	if count != 2 {
		t.Fatalf("watch fired %d times, want 2", count)
	}
}

// hasPrefix is the segment-wise watch match the string match replaced:
// prefix's segments lead path's.
func hasPrefix(path, prefix []string) bool {
	if len(prefix) > len(path) {
		return false
	}
	for i, p := range prefix {
		if path[i] != p {
			return false
		}
	}
	return true
}

// Watches match on the path string with a segment boundary. Over every
// pair of these paths the string match says what the segment-wise one
// did, and a store delivers accordingly.
func TestWatchMatchIsSegmentWise(t *testing.T) {
	paths := []string{"/", "/local", "/local/domain", "/local/domain/1", "/local/domain/10", "/local/domain/10/x",
		"/local/domain/1/x", "/local/domain/1/xy", "/local/domain/1/x/y", "/local/domainx", "/a", "/a/b", "/ab", "/a/bb"}
	for _, prefix := range paths {
		for _, path := range paths {
			if got, want := under(path, prefix), hasPrefix(split(path), split(prefix)); got != want {
				t.Errorf("under(%q, %q) = %v, segment-wise says %v", path, prefix, got, want)
			}
		}
	}
	for _, c := range []struct {
		path, prefix string
		want         bool
	}{
		{"/local/domain/10/x", "/local/domain/1", false},
		{"/local/domain/1/x", "/local/domain/1", true},
		{"/local/domain/1", "/local/domain/1", true}, // a prefix equal to the path
		{"/local/domain/10/x", "/", true},            // the root covers everything
		{"/local/domain", "/local/domain/1", false},
	} {
		if got := under(c.path, c.prefix); got != c.want {
			t.Errorf("under(%q, %q) = %v, want %v", c.path, c.prefix, got, c.want)
		}
	}

	k, s := newTestStore()
	fired := map[string]int{}
	for _, prefix := range []string{"/", DomainPath(1), DomainPath(10)} {
		if _, err := s.Watch(Dom0, prefix, func(string, string) { fired[prefix]++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Write(Dom0, DomainPath(10)+"/x", "v")
	s.Write(Dom0, DomainPath(1), "v")
	k.Run()
	if fired["/"] != 2 || fired[DomainPath(1)] != 1 || fired[DomainPath(10)] != 1 {
		t.Fatalf("deliveries by prefix: %v", fired)
	}
	for _, bad := range []string{"", "a", "/a/", "//", "/a//b"} {
		if _, err := s.Watch(Dom0, bad, func(string, string) {}); !errors.Is(err, ErrBadPath) {
			t.Errorf("Watch(%q) = %v, want ErrBadPath", bad, err)
		}
	}
}

func TestWatchPermissionFiltered(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	fired := false
	// Dom 2 watches dom 1's subtree; it cannot read it, so no events.
	s.Watch(2, "/local/domain/1", func(p, v string) { fired = true })
	k.At(1, func() { s.Write(1, "/local/domain/1/x", "v") })
	k.Run()
	if fired {
		t.Fatal("watch leaked across domains")
	}
}

func TestUnwatchDropsInFlight(t *testing.T) {
	k, s := newTestStore()
	fired := false
	id, _ := s.Watch(Dom0, "/a", func(p, v string) { fired = true })
	k.At(1, func() {
		s.Write(Dom0, "/a/x", "v")
		s.Unwatch(id) // notification already queued, must be dropped
	})
	k.Run()
	if fired {
		t.Fatal("unwatched watch fired")
	}
}

func TestWatchOnRemove(t *testing.T) {
	k, s := newTestStore()
	var gotValue string
	fired := 0
	s.Watch(Dom0, "/a", func(p, v string) { fired++; gotValue = v })
	k.At(1, func() {
		s.Write(Dom0, "/a/x", "v")
		s.Remove(Dom0, "/a/x")
	})
	k.Run()
	if fired != 2 {
		t.Fatalf("fired %d, want 2 (write + remove)", fired)
	}
	if gotValue != "" {
		t.Fatalf("remove notification value = %q, want empty", gotValue)
	}
}

func TestTypedHelpers(t *testing.T) {
	_, s := newTestStore()
	if err := s.WriteInt(Dom0, "/n", 42); err != nil {
		t.Fatal(err)
	}
	if v, err := s.ReadInt(Dom0, "/n", -1); err != nil || v != 42 {
		t.Fatalf("ReadInt = %d, %v", v, err)
	}
	if v, err := s.ReadInt(Dom0, "/missing", 7); err != nil || v != 7 {
		t.Fatalf("ReadInt default = %d, %v", v, err)
	}
	s.WriteBool(Dom0, "/b", true)
	if v, err := s.ReadBool(Dom0, "/b"); err != nil || !v {
		t.Fatalf("ReadBool = %v, %v", v, err)
	}
	s.WriteBool(Dom0, "/b", false)
	if v, _ := s.ReadBool(Dom0, "/b"); v {
		t.Fatal("ReadBool after false write = true")
	}
	if v, err := s.ReadBool(Dom0, "/missingbool"); err != nil || v {
		t.Fatalf("ReadBool missing = %v, %v", v, err)
	}
	s.WriteFloat(Dom0, "/f", 2.5)
	if v, err := s.ReadFloat(Dom0, "/f", 0); err != nil || v != 2.5 {
		t.Fatalf("ReadFloat = %v, %v", v, err)
	}
	if v, err := s.ReadFloat(Dom0, "/missf", 1.25); err != nil || v != 1.25 {
		t.Fatalf("ReadFloat default = %v, %v", v, err)
	}
	// Corrupt values report errors with defaults.
	s.Write(Dom0, "/bad", "not-a-number")
	if _, err := s.ReadInt(Dom0, "/bad", 0); err == nil {
		t.Fatal("ReadInt of garbage succeeded")
	}
	if _, err := s.ReadFloat(Dom0, "/bad", 0); err == nil {
		t.Fatal("ReadFloat of garbage succeeded")
	}
}

func TestStatsCount(t *testing.T) {
	k, s := newTestStore()
	s.Watch(Dom0, "/a", func(p, v string) {})
	k.At(1, func() {
		s.Write(Dom0, "/a/x", "1")
		s.Read(Dom0, "/a/x")
	})
	k.Run()
	r, w, n := s.Stats()
	if r != 1 || w != 1 || n != 1 {
		t.Fatalf("Stats = %d,%d,%d", r, w, n)
	}
}

func TestTxnCommitAppliesAtomically(t *testing.T) {
	k, s := newTestStore()
	count := 0
	s.Watch(Dom0, "/t", func(p, v string) { count++ })
	k.At(1, func() {
		tx := s.Begin(Dom0)
		tx.Write("/t/a", "1")
		tx.Write("/t/b", "2")
		if v, err := tx.Read("/t/a"); err != nil || v != "1" {
			t.Errorf("txn read-own-write = %q, %v", v, err)
		}
		if s.Exists("/t/a") {
			t.Error("write visible before commit")
		}
		if err := tx.Commit(); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	k.Run()
	if v, _ := s.Read(Dom0, "/t/b"); v != "2" {
		t.Fatal("committed write missing")
	}
	if count != 2 {
		t.Fatalf("watches fired %d, want 2", count)
	}
}

func TestTxnConflictDetected(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/c/x", "old")
	tx := s.Begin(Dom0)
	if _, err := tx.Read("/c/x"); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer changes the node.
	s.Write(Dom0, "/c/x", "new")
	tx.Write("/c/y", "1")
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit err = %v, want ErrConflict", err)
	}
	if s.Exists("/c/y") {
		t.Fatal("conflicted txn leaked a write")
	}
}

func TestTxnWriteWriteConflict(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/c/x", "old")
	tx := s.Begin(Dom0)
	tx.Write("/c/x", "mine")
	s.Write(Dom0, "/c/x", "theirs")
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit err = %v, want ErrConflict", err)
	}
	if v, _ := s.Read(Dom0, "/c/x"); v != "theirs" {
		t.Fatalf("value = %q, want theirs", v)
	}
}

func TestTxnPermissionCheckedAtCommit(t *testing.T) {
	_, s := newTestStore()
	s.AddDomain(1)
	s.AddDomain(2)
	s.Write(1, "/local/domain/1/x", "v")
	tx := s.Begin(2)
	tx.Write("/local/domain/1/x", "stolen")
	if err := tx.Commit(); !errors.Is(err, ErrPermission) {
		t.Fatalf("Commit err = %v, want ErrPermission", err)
	}
	if v, _ := s.Read(Dom0, "/local/domain/1/x"); v != "v" {
		t.Fatal("permission-denied txn mutated store")
	}
}

func TestTxnRemove(t *testing.T) {
	_, s := newTestStore()
	s.Write(Dom0, "/r/x", "v")
	tx := s.Begin(Dom0)
	tx.Remove("/r/x")
	if _, err := tx.Read("/r/x"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("txn read of buffered removal err = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/r/x") {
		t.Fatal("removal not applied")
	}
}

func TestTxnAbortAndReuse(t *testing.T) {
	_, s := newTestStore()
	tx := s.Begin(Dom0)
	tx.Write("/a/x", "1")
	tx.Abort()
	if s.Exists("/a/x") {
		t.Fatal("aborted txn applied writes")
	}
	if err := tx.Write("/a/y", "2"); err == nil {
		t.Fatal("write on finished txn succeeded")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit on finished txn succeeded")
	}
}

func TestDomainPathFormat(t *testing.T) {
	if got := DomainPath(17); got != "/local/domain/17" {
		t.Fatalf("DomainPath = %q", got)
	}
}

// TestConcurrentWatchUnwatch exercises the watch table under -race: worker
// goroutines register and remove watches while the main goroutine (the
// simulation goroutine) writes and steps the kernel. Node data stays on
// the kernel goroutine — only Watch/Unwatch are called concurrently, which
// is exactly the contract the watchMu lock provides.
func TestConcurrentWatchUnwatch(t *testing.T) {
	k, s := newTestStore()
	const workers = 8
	const perWorker = 200

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := s.Watch(Dom0, "/contended", func(path, value string) {})
				if err != nil {
					t.Error(err)
					return
				}
				s.Unwatch(id)
			}
		}()
	}

	// Meanwhile the simulation goroutine keeps writing (firing watches,
	// which snapshots the table) and delivering notifications.
	for i := 0; i < 100; i++ {
		if err := s.Write(Dom0, "/contended/key", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
		k.RunUntil(k.Now() + sim.Millisecond)
	}
	close(stop)
	wg.Wait()

	// A watch registered after the churn still works.
	fired := false
	if _, err := s.Watch(Dom0, "/contended", func(path, value string) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(Dom0, "/contended/key", "final"); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(k.Now() + sim.Second)
	if !fired {
		t.Fatal("watch registered after concurrent churn did not fire")
	}
}
