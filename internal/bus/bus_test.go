package bus

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

func mk() (*sim.Kernel, *Bus) {
	k := sim.NewKernel()
	st := store.New(k, 5*sim.Microsecond)
	return k, New(k, st, 20*sim.Microsecond)
}

func TestRegisterIdempotent(t *testing.T) {
	_, b := mk()
	d1 := b.Register(3)
	d2 := b.Register(3)
	if d1 != d2 {
		t.Fatal("Register returned distinct handles for same domain")
	}
	if d1.ID() != 3 {
		t.Fatalf("ID = %d", d1.ID())
	}
}

func TestDomainsSorted(t *testing.T) {
	_, b := mk()
	for _, id := range []store.DomID{5, 1, 3} {
		b.Register(id)
	}
	got := b.Domains()
	want := []store.DomID{1, 3, 5}
	if len(got) != 3 {
		t.Fatalf("Domains = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Domains = %v, want %v", got, want)
		}
	}
}

func TestDomainScopedReadWrite(t *testing.T) {
	_, b := mk()
	d := b.Register(2)
	if err := d.Write("virt-dev/xvda/nr", "10"); err != nil {
		t.Fatal(err)
	}
	if v, err := d.Read("virt-dev/xvda/nr"); err != nil || v != "10" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	// Raw store confirms the absolute path.
	if v, err := b.Store().Read(store.Dom0, store.DiskPath(2, "xvda", "nr")); err != nil || v != "10" {
		t.Fatalf("absolute Read = %q, %v", v, err)
	}
}

func TestDomainTypedHelpers(t *testing.T) {
	_, b := mk()
	d := b.Register(2)
	d.WriteBool("flag", true)
	if v, err := d.ReadBool("flag"); err != nil || !v {
		t.Fatalf("ReadBool = %v, %v", v, err)
	}
	d.WriteInt("count", 9)
	if v, err := d.ReadInt("count", 0); err != nil || v != 9 {
		t.Fatalf("ReadInt = %d, %v", v, err)
	}
	d.WriteFloat("ratio", 0.5)
	if v, err := d.ReadFloat("ratio", 0); err != nil || v != 0.5 {
		t.Fatalf("ReadFloat = %v, %v", v, err)
	}
	if v, err := d.ReadInt("absent", 4); err != nil || v != 4 {
		t.Fatalf("ReadInt default = %d, %v", v, err)
	}
}

func TestDomainCannotEscapeSubtree(t *testing.T) {
	_, b := mk()
	b.Register(1)
	d2 := b.Register(2)
	// Domain 2's handle is rooted at its own path; the only way to reach
	// domain 1 is through the raw store, which denies it.
	err := b.Store().Write(2, store.DomainPath(1)+"/x", "intrude")
	if !errors.Is(err, store.ErrPermission) {
		t.Fatalf("cross-domain raw write err = %v", err)
	}
	_ = d2
}

func TestDomainWatchRelativePaths(t *testing.T) {
	k, b := mk()
	d := b.Register(4)
	var gotRel, gotVal string
	d.Watch("virt-dev", func(rel, v string) { gotRel, gotVal = rel, v })
	k.At(1, func() { d.Write("virt-dev/xvda/congested", "1") })
	k.Run()
	if gotRel != "virt-dev/xvda/congested" || gotVal != "1" {
		t.Fatalf("watch got (%q, %q)", gotRel, gotVal)
	}
}

func TestDomainUnwatch(t *testing.T) {
	k, b := mk()
	d := b.Register(4)
	fired := false
	id, _ := d.Watch("x", func(rel, v string) { fired = true })
	d.Unwatch(id)
	k.At(1, func() { d.Write("x", "1") })
	k.Run()
	if fired {
		t.Fatal("unwatched callback fired")
	}
}

func TestChannelNotifyLatencyAndDirection(t *testing.T) {
	k, b := mk()
	front, back := b.NewChannel(1, 0)
	var frontAt, backAt sim.Time
	front.SetHandler(func() { frontAt = k.Now() })
	back.SetHandler(func() { backAt = k.Now() })
	k.At(sim.Millisecond, func() { front.Notify() }) // guest kicks backend
	k.At(2*sim.Millisecond, func() { back.Notify() })
	k.Run()
	if want := sim.Millisecond + 20*sim.Microsecond; backAt != want {
		t.Fatalf("backend handler at %v, want %v", backAt, want)
	}
	if want := 2*sim.Millisecond + 20*sim.Microsecond; frontAt != want {
		t.Fatalf("frontend handler at %v, want %v", frontAt, want)
	}
	if b.Notifications() != 2 {
		t.Fatalf("Notifications = %d", b.Notifications())
	}
}

func TestChannelClosedDropsEvents(t *testing.T) {
	k, b := mk()
	a, z := b.NewChannel(1, 2)
	fired := false
	z.SetHandler(func() { fired = true })
	k.At(1, func() {
		a.Notify()
		z.Close() // close before delivery: in-flight event dropped
	})
	k.Run()
	if fired {
		t.Fatal("closed port received event")
	}
	// Notify on closed peer is a no-op rather than a panic.
	k2, b2 := mk()
	a2, z2 := b2.NewChannel(1, 2)
	z2.Close()
	k2.At(1, func() { a2.Notify() })
	k2.Run()
	if b2.Notifications() != 0 {
		t.Fatal("notification counted despite closed peer")
	}
}

func TestChannelNoHandlerIsSafe(t *testing.T) {
	k, b := mk()
	a, _ := b.NewChannel(1, 2)
	k.At(1, func() { a.Notify() })
	k.Run() // must not panic
}

func TestPortString(t *testing.T) {
	_, b := mk()
	a, _ := b.NewChannel(7, 0)
	if a.String() != "port(dom7)" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestUnregisterForgetsTheHandle(t *testing.T) {
	_, b := mk()
	d := b.Register(3)
	d.Write("k", "1")
	b.Unregister(3)
	b.Unregister(3) // unknown ids are ignored
	if got := b.Domains(); len(got) != 0 {
		t.Fatalf("Domains after Unregister = %v", got)
	}
	// The store subtree is not the bus's to remove, a held handle keeps
	// working, and the domain can register again.
	if err := d.Write("k", "2"); err != nil {
		t.Fatal(err)
	}
	d2 := b.Register(3)
	if v, err := d2.Read("k"); d2 == d || err != nil || v != "2" {
		t.Fatalf("after re-Register: same handle %v, Read = %q, %v", d2 == d, v, err)
	}
}

// storeHistory is everything an observer can tell about a store after a
// script ran against it.
type storeHistory struct {
	errs    []string // the outcome of every scripted operation
	events  []string // watch deliveries, in order, tagged by watcher
	walk    []string
	version uint64
	hashes  []uint64   // "/" and every domain's SubtreeHash
	deltas  [][]string // DeltasSince(v) for every v up to version ("!" when not covered)
}

// runScript drives one seeded script of creates, overwrites, removes,
// grants and re-creates against a fresh store. Guest writes go through
// write(dom, rel, value); everything else is absolute in both runs.
func runScript(t *testing.T, seed uint64, viaHandles bool) storeHistory {
	t.Helper()
	k, b := mk()
	st := b.Store()
	const doms = 3
	handles := map[store.DomID]*Domain{}
	for d := store.DomID(1); d <= doms; d++ {
		if viaHandles {
			handles[d] = b.Register(d)
		} else {
			st.AddDomain(d)
		}
	}
	var h storeHistory
	watch := func(tag string, dom store.DomID, prefix string) {
		if _, err := st.Watch(dom, prefix, func(p, v string) { h.events = append(h.events, tag+" "+p+"="+v) }); err != nil {
			t.Fatal(err)
		}
	}
	watch("dom0-root", store.Dom0, "/")
	watch("dom1-own", 1, store.DomainPath(1))
	watch("dom2-foreign", 2, store.DomainPath(1)) // hears only what dom1 grants it
	note := func(op string, err error) {
		if err != nil {
			op += ": " + err.Error()
		}
		h.errs = append(h.errs, op)
	}
	rels := []string{"a", "b/c", "b/d", "virt-dev/xvda/k", "virt-dev/xvda/l", "virt-dev/xvdb/k"}
	dirs := []string{"b", "virt-dev", "virt-dev/xvda"}
	rng := stats.NewStream(seed, "script")
	for step := 0; step < 600; step++ {
		dom := store.DomID(1 + rng.Intn(doms))
		rel := rels[rng.Intn(len(rels))]
		abs := store.DomainPath(dom) + "/" + rel
		value := strconv.Itoa(step)
		switch r := rng.Intn(100); {
		case r < 60: // the guest writes its own key: a create the first time, an overwrite after
			if viaHandles {
				note("write "+abs, handles[dom].Write(rel, value))
			} else {
				note("write "+abs, st.Write(dom, abs, value))
			}
		case r < 68: // Dom0 writes into the guest's subtree; what it creates is Dom0's
			note("dom0 write "+abs, st.Write(store.Dom0, abs, value))
		case r < 76:
			note("remove "+abs, st.Remove(store.Dom0, abs))
		case r < 84:
			dir := store.DomainPath(dom) + "/" + dirs[rng.Intn(len(dirs))]
			note("remove "+dir, st.Remove(store.Dom0, dir))
		case r < 88: // the whole domain goes and its home comes back
			note("remove "+store.DomainPath(dom), st.Remove(store.Dom0, store.DomainPath(dom)))
			st.AddDomain(dom)
		case r < 96:
			note("grant "+abs, st.Grant(dom, abs, 2, store.PermRead))
		default:
			k.Run() // deliver what is pending
		}
	}
	k.Run()
	st.Walk(store.Dom0, "/", func(p, v string) { h.walk = append(h.walk, p+"="+v) })
	h.version = st.Version()
	h.hashes = append(h.hashes, st.SubtreeHash("/"))
	for d := store.DomID(1); d <= doms; d++ {
		h.hashes = append(h.hashes, st.SubtreeHash(store.DomainPath(d)))
	}
	for v := uint64(0); v <= h.version; v++ {
		deltas, ok := st.DeltasSince(v)
		if !ok {
			h.deltas = append(h.deltas, []string{"!"})
			continue
		}
		row := make([]string, len(deltas))
		for i, dl := range deltas {
			row[i] = fmt.Sprint(dl)
		}
		h.deltas = append(h.deltas, row)
	}
	return h
}

// The handle path is the absolute path: one script run through
// Store.Write alone and again through bus.Domain handles leaves the same
// store — tree, version, hashes, every delta window — told its watchers
// the same things in the same order (a Dom0 root watcher, a domain's own,
// a foreign one that hears only granted nodes) and refused the same
// operations with the same words.
func TestHandleWritesAreAbsoluteWrites(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		abs, via := runScript(t, seed, false), runScript(t, seed, true)
		if len(abs.events) < 100 || len(abs.walk) < 8 {
			t.Fatalf("seed %d: the script is too thin to tell: %d events, %d nodes", seed, len(abs.events), len(abs.walk))
		}
		var refused, foreign int
		for _, e := range abs.errs {
			if strings.Contains(e, "permission denied") {
				refused++
			}
		}
		for _, e := range abs.events {
			if strings.HasPrefix(e, "dom2-foreign") {
				foreign++
			}
		}
		if refused == 0 || foreign == 0 {
			t.Fatalf("seed %d: %d refusals and %d foreign deliveries: the script misses a case", seed, refused, foreign)
		}
		if !reflect.DeepEqual(abs, via) {
			for i := range abs.errs {
				if abs.errs[i] != via.errs[i] {
					t.Fatalf("seed %d, operation %d: absolute %q, handles %q", seed, i, abs.errs[i], via.errs[i])
				}
			}
			for i := range min(len(abs.events), len(via.events)) {
				if abs.events[i] != via.events[i] {
					t.Fatalf("seed %d, event %d: absolute %q, handles %q", seed, i, abs.events[i], via.events[i])
				}
			}
			t.Fatalf("seed %d: histories differ:\nabsolute: version %d, %d events, hashes %x\n walk %v\nhandles:  version %d, %d events, hashes %x\n walk %v",
				seed, abs.version, len(abs.events), abs.hashes, abs.walk, via.version, len(via.events), via.hashes, via.walk)
		}
	}
}
