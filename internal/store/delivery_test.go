package store

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"iorchestra/internal/sim"
)

// A write to an existing key with one watcher, delivery included, keeps
// nothing it allocates: the delivery record comes off the free list and
// goes back. (The kernel's event slab is amortized far below one
// allocation per write, which AllocsPerRun rounds away.)
func TestWatchedWriteAllocatesNothing(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(1)
	path := DomainPath(1) + "/virt-dev/xvda/nr_dirty"
	seen := 0
	if _, err := s.Watch(Dom0, path, func(string, string) { seen++ }); err != nil {
		t.Fatal(err)
	}
	vals := [2]string{"4096", "8192"}
	n := 0
	write := func() {
		n++
		if err := s.Write(1, path, vals[n&1]); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("watched write + delivery allocates %.0f times, want 0", allocs)
	}
	if seen != n {
		t.Fatalf("watcher saw %d of %d writes", seen, n)
	}
	if len(s.freeDeliveries) != 1 {
		t.Fatalf("free list holds %d records after serial writes, want the one reused", len(s.freeDeliveries))
	}
	checkIndex(t, s, "after rewrites")
}

// A burst of watched writes the kernel has not yet delivered, as when a
// host brings its guests up, holds neither its records nor its note ring
// for the store's life once it drains: the free list keeps at most its
// bound, and the ring, grown past that bound, is let go. Writes of one
// instant share one record; a kernel event scheduled between two writes
// splits them, so the second burst takes a record per write. The second
// burst is as large as the first, so it regrows a ring of a size let go
// of before — a burst that recurs, as a running host's same-instant
// writes do — and the store keeps that ring for the next one.
func TestFreeDeliveriesCapped(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(1)
	seen := 0
	if _, err := s.Watch(Dom0, DomainPath(1), func(string, string) { seen++ }); err != nil {
		t.Fatal(err)
	}
	const burst = 10000
	for pass, split := range []bool{false, true} {
		for i := 0; i < burst; i++ {
			if err := s.Write(1, DomainPath(1)+"/k", strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
			if split {
				k.After(sim.Second, func() {})
			}
		}
		pending, want := 0, 1
		for d := s.pendHead; d != nil; d = d.next {
			pending++
		}
		if split {
			want = burst
		}
		if pending != want || s.noteLen != burst {
			t.Fatalf("split %v: %d records hold %d pending notes, want %d and %d", split, pending, s.noteLen, want, burst)
		}
		grown := len(s.notes)
		k.Run()
		if seen != (pass+1)*burst {
			t.Fatalf("split %v: watcher saw %d of %d writes", split, seen, (pass+1)*burst)
		}
		if n := len(s.freeDeliveries); n > maxFreeDeliveries || (split && n != maxFreeDeliveries) {
			t.Fatalf("split %v: free list holds %d records after a %d-write burst, want at most (and after a split burst exactly) its bound %d", split, n, burst, maxFreeDeliveries)
		}
		if kept := len(s.notes); split != (kept == grown) || (!split && s.notes != nil) {
			t.Fatalf("burst %d: the drained ring keeps room for %d of the %d notes it grew to; want it let go after the first burst and kept after the recurring one", pass+1, kept, grown)
		}
	}
}

// The permission filter's silent continue is counted: a guest watching
// its own subtree hears nothing of a Dom0-owned node in it until Dom0
// grants read, and FilteredNotifies says so.
func TestFilteredNotifiesCounted(t *testing.T) {
	k, s := newTestStore()
	s.AddDomain(1)
	path := DomainPath(1) + "/sla/state"
	var got []string
	if _, err := s.Watch(1, DomainPath(1), func(_, v string) { got = append(got, v) }); err != nil {
		t.Fatal(err)
	}
	s.Write(Dom0, path, "G1")
	k.Run()
	if len(got) != 0 || s.FilteredNotifies() != 1 {
		t.Fatalf("ungranted: delivered %v, filtered %d; want nothing delivered, 1 filtered", got, s.FilteredNotifies())
	}
	if err := s.Grant(Dom0, path, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	s.Write(Dom0, path, "G2")
	k.Run()
	if !reflect.DeepEqual(got, []string{"G2"}) || s.FilteredNotifies() != 1 {
		t.Fatalf("granted: delivered %v, filtered %d; want [G2], still 1", got, s.FilteredNotifies())
	}
	if _, _, notifies := s.Stats(); notifies != 1 {
		t.Fatalf("Stats notifies = %d, want 1 (a filtered notification is not a notification)", notifies)
	}
}

// deliveryScenario drives the cases a reused delivery record could get
// wrong and returns what the watchers observed, in order. Five watchers
// match a write to a, in id order w1..w5; w4 belongs to domain 2, whose
// deliveries a fault hook delays, so each fan-out splits into the runs
// [w1 w2 w3] [w4] [w5]. On a = "go", w1 writes b from inside its
// callback — re-entering Write while its own record is running — and w2
// unwatches w3, a later watcher of the same run. With dropFree the free
// list is emptied before every write, so every run gets a fresh record.
func deliveryScenario(t *testing.T, dropFree bool) []string {
	t.Helper()
	k, s := newTestStore()
	s.AddDomain(1)
	a, b := DomainPath(1)+"/a", DomainPath(1)+"/b"
	var log []string
	write := func(path, value string) {
		if dropFree {
			s.freeDeliveries = nil
		}
		if err := s.Write(1, path, value); err != nil {
			t.Fatal(err)
		}
	}
	observe := func(w int) func(path, value string) {
		return func(path, value string) {
			log = append(log, fmt.Sprintf("%dus w%d %s=%s", k.Now()/sim.Time(sim.Microsecond), w, path[len(DomainPath(1)):], value))
		}
	}
	write(a, "")
	write(b, "")
	for _, p := range []string{a, b} {
		if err := s.Grant(1, p, 2, PermRead); err != nil {
			t.Fatal(err)
		}
	}
	s.SetFaultHooks(&FaultHooks{Delivery: func(dom DomID, _ string) (sim.Duration, bool) {
		if dom == 2 {
			return 5 * sim.Microsecond, false
		}
		return 0, false
	}})
	var w3 WatchID
	watch := func(dom DomID, prefix string, fn func(path, value string)) WatchID {
		id, err := s.Watch(dom, prefix, fn)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	see1, see2 := observe(1), observe(2)
	watch(Dom0, a, func(path, value string) {
		see1(path, value)
		if value == "go" {
			write(b, "from-w1")
		}
	})
	watch(Dom0, a, func(path, value string) {
		see2(path, value)
		if value == "go" {
			s.Unwatch(w3)
		}
	})
	w3 = watch(Dom0, a, observe(3))
	watch(2, DomainPath(1), observe(4))
	watch(Dom0, DomainPath(1), observe(5))

	write(a, "1")
	k.Run()
	write(a, "go")
	k.Run()
	write(a, "2")
	write(b, "3") // two fan-outs in flight at once
	k.Run()
	return log
}

func TestDeliveryRecordReuse(t *testing.T) {
	// Recorded from the closure-per-fire implementation this replaced:
	// runs of one write fire in (time, seq) order, the delayed run last.
	want := []string{
		"10us w1 /a=1", "10us w2 /a=1", "10us w3 /a=1", "10us w5 /a=1", "15us w4 /a=1",
		"25us w1 /a=go", "25us w2 /a=go", "25us w5 /a=go", "30us w4 /a=go",
		"35us w5 /b=from-w1", "40us w4 /b=from-w1",
		"50us w1 /a=2", "50us w2 /a=2", "50us w5 /a=2", "50us w5 /b=3", "55us w4 /a=2", "55us w4 /b=3",
	}
	reused := deliveryScenario(t, false)
	if !reflect.DeepEqual(reused, want) {
		t.Errorf("with the free list:\n got %q\nwant %q", reused, want)
	}
	if fresh := deliveryScenario(t, true); !reflect.DeepEqual(fresh, want) {
		t.Errorf("with fresh records:\n got %q\nwant %q", fresh, want)
	}
}
