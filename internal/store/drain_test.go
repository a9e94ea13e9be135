package store

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// drainRig is one store of the owner-drain differential: the store, how
// it is drained, its clock, and the callbacks it made.
type drainRig struct {
	s     *Store
	drain func()
	now   func() sim.Time
	log   []string
	ids   []WatchID
}

// watch registers a watcher that logs every callback with the delivery
// clock, and, for a write to a "ping" key, writes the matching "pong"
// from inside the callback — so a delivery schedules deliveries of its
// own while others are pending.
func (r *drainRig) watch(dom DomID, prefix string) error {
	name := fmt.Sprintf("w%d(dom%d %s)", len(r.ids), dom, prefix)
	id, err := r.s.Watch(dom, prefix, func(path, value string) {
		r.log = append(r.log, fmt.Sprintf("%v %s %s=%q", r.now(), name, path, value))
		if dir, ok := strings.CutSuffix(path, "/ping"); ok && value != "" {
			r.log = append(r.log, fmt.Sprint("  pong: ", r.s.Write(Dom0, dir+"/pong", value)))
		}
	})
	if err == nil {
		r.ids = append(r.ids, id)
	}
	return err
}

// faultHooks are the rig's stalewrite, watchdrop and watchdelay faults,
// drawn from a stream both rigs fork alike.
func faultHooks(rng *stats.Stream) *FaultHooks {
	writes, deliveries := rng.Fork("stalewrite"), rng.Fork("delivery")
	return &FaultHooks{
		DropWrite: func(DomID, string) bool { return writes.Bool(0.05) },
		Delivery: func(DomID, string) (sim.Duration, bool) {
			if deliveries.Bool(0.1) {
				return 0, true
			}
			if deliveries.Bool(0.25) {
				return 1 + sim.Duration(deliveries.Int63n(int64(50*sim.Microsecond))), false
			}
			return 0, false
		},
	}
}

// TestOwnerDrainIsKernelDrain: a store built without a kernel and drained
// by its owner (Deliver) makes exactly the callbacks, at exactly the
// delivery times, of a store on a kernel drained by Kernel.Run — the same
// seeded script of writes, creates, removes, watches and unwatches while
// records are pending, callbacks that write, and stale-write, watch-drop
// and watch-delay faults — and keeps the same counters.
func TestOwnerDrainIsKernelDrain(t *testing.T) {
	var fired [3]uint64 // stale writes, dropped and delayed deliveries
	for _, latency := range []sim.Duration{0, 30 * sim.Microsecond} {
		for seed := uint64(1); seed <= 8; seed++ {
			k := sim.NewKernel()
			onKernel := &drainRig{s: New(k, latency), drain: k.Run, now: k.Now}
			owned := &drainRig{s: New(nil, latency)}
			owned.drain, owned.now = owned.s.Deliver, func() sim.Time { return owned.s.now }
			rigs := []*drainRig{onKernel, owned}
			for _, r := range rigs {
				r.s.SetFaultHooks(faultHooks(stats.NewStream(seed, "drain/faults")))
				for dom := DomID(1); dom <= 3; dom++ {
					r.s.AddDomain(dom)
				}
			}
			script := stats.NewStream(seed, "drain/script")
			// One step of the script, the same draws applied to both rigs.
			for step := 0; step < 400; step++ {
				dom := DomID(script.Intn(4))
				path := fmt.Sprintf("%s/d%d/%s", DomainPath(DomID(1+script.Intn(3))), script.Intn(3),
					[]string{"k", "ping", "pong", "x/y"}[script.Intn(4)])
				prefix := []string{"/", Root, DomainPath(1), DomainPath(2) + "/d1", DomainPath(3)}[script.Intn(5)]
				op, value, pick := script.Intn(10), fmt.Sprint(step), script.Intn(1<<20)
				for _, r := range rigs {
					switch {
					case op < 5:
						r.log = append(r.log, fmt.Sprint("write: ", r.s.Write(dom, path, value)))
					case op == 5:
						r.log = append(r.log, fmt.Sprint("remove: ", r.s.Remove(dom, path)))
					case op == 6:
						r.log = append(r.log, fmt.Sprint("watch: ", r.watch(dom, prefix)))
					case op == 7 && len(r.ids) > 0:
						r.s.Unwatch(r.ids[pick%len(r.ids)])
					default:
						r.drain()
						r.log = append(r.log, fmt.Sprintf("drained at %v", r.now()))
					}
				}
			}
			for _, r := range rigs {
				r.drain()
			}
			if !reflect.DeepEqual(onKernel.log, owned.log) {
				for i := range min(len(onKernel.log), len(owned.log)) {
					if onKernel.log[i] != owned.log[i] {
						t.Fatalf("latency %v, seed %d: entry %d of %d/%d: kernel drain %q, owner drain %q",
							latency, seed, i, len(onKernel.log), len(owned.log), onKernel.log[i], owned.log[i])
					}
				}
				t.Fatalf("latency %v, seed %d: kernel drain logged %d entries, owner drain %d",
					latency, seed, len(onKernel.log), len(owned.log))
			}
			kr, kw, kn := onKernel.s.Stats()
			or, ow, on := owned.s.Stats()
			kdw, kdn, kdd := onKernel.s.FaultStats()
			odw, odn, odd := owned.s.FaultStats()
			if [...]uint64{kr, kw, kn, kdw, kdn, kdd, onKernel.s.FilteredNotifies()} !=
				[...]uint64{or, ow, on, odw, odn, odd, owned.s.FilteredNotifies()} {
				t.Fatalf("latency %v, seed %d: counters differ: kernel %d/%d/%d faults %d/%d/%d, owner %d/%d/%d faults %d/%d/%d",
					latency, seed, kr, kw, kn, kdw, kdn, kdd, or, ow, on, odw, odn, odd)
			}
			fired[0], fired[1], fired[2] = fired[0]+kdw, fired[1]+kdn, fired[2]+kdd
		}
	}
	if fired[0] == 0 || fired[1] == 0 || fired[2] == 0 {
		t.Fatalf("a fault never fired: stale writes %d, drops %d, delays %d", fired[0], fired[1], fired[2])
	}
}
