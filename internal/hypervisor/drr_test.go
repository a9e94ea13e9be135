package hypervisor

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// The reference: the parent's two scans, Cgroup.pick and IOCore.next at
// 58f6f4d, verbatim, over the state they read, with the class creation
// each dispatcher did. A departed guest's class stays in them forever.

type refCgroup struct {
	classes     map[int]*cgClass
	order       []int
	cursor      int
	quantumBase float64
}

type cgClass struct {
	id     int
	weight float64
	credit float64
	queue  sim.FIFO[*device.Request]
}

func (c *refCgroup) SetWeight(id int, w float64) {
	cl := c.classes[id]
	if cl == nil {
		cl = &cgClass{id: id}
		c.classes[id] = cl
		c.order = append(c.order, id)
		sort.Ints(c.order)
	}
	cl.weight = w
}

func (c *refCgroup) pick() *cgClass {
	if len(c.order) == 0 {
		return nil
	}
	// Two sweeps: first an attempt with existing credit, then one credit
	// replenishment for every backlogged class; a class with an empty
	// queue forfeits its credit (standard DRR).
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < len(c.order); i++ {
			cl := c.classes[c.order[c.cursor]]
			c.cursor = (c.cursor + 1) % len(c.order)
			if cl.queue.Len() == 0 {
				cl.credit = 0
				continue
			}
			if r, _ := cl.queue.Peek(); cl.credit >= float64(r.Size) {
				// Un-advance so repeated picks drain this class while
				// its credit lasts.
				c.cursor = (c.cursor - 1 + len(c.order)) % len(c.order)
				return cl
			}
		}
		if sweep == 0 {
			any := false
			for _, id := range c.order {
				cl := c.classes[id]
				if cl.queue.Len() > 0 {
					cl.credit += c.quantumBase * cl.weight
					// Guarantee progress for oversized requests.
					if r, _ := cl.queue.Peek(); cl.credit < float64(r.Size) && cl.weight > 0 {
						cl.credit = float64(r.Size)
					}
					any = true
				}
			}
			if !any {
				return nil
			}
		}
	}
	return nil
}

type refIOCore struct {
	buffers map[store.DomID]*coreBuffer
	order   []store.DomID
	cursor  int
}

type coreBuffer struct {
	dom     store.DomID
	queue   sim.FIFO[*pendingReq]
	credit  float64
	quantum float64
}

type pendingReq struct{ r *device.Request }

func (c *refIOCore) SetQuantum(dom store.DomID, bytes float64) {
	b := c.buffer(dom)
	if bytes <= 0 {
		bytes = 256 << 10
	}
	b.quantum = bytes
}

func (c *refIOCore) buffer(dom store.DomID) *coreBuffer {
	b := c.buffers[dom]
	if b == nil {
		b = &coreBuffer{dom: dom, quantum: 256 << 10}
		c.buffers[dom] = b
		c.order = append(c.order, dom)
	}
	return b
}

func (c *refIOCore) next() *coreBuffer {
	if len(c.order) == 0 {
		return nil
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < len(c.order); i++ {
			b := c.buffers[c.order[c.cursor]]
			if b.queue.Len() == 0 {
				b.credit = 0 // Algorithm 3: empty buffer forfeits credit
				c.cursor = (c.cursor + 1) % len(c.order)
				continue
			}
			if p, _ := b.queue.Peek(); b.credit >= float64(p.r.Size) {
				return b
			}
			c.cursor = (c.cursor + 1) % len(c.order)
		}
		if sweep == 0 {
			any := false
			for _, id := range c.order {
				b := c.buffers[id]
				if b.queue.Len() > 0 {
					b.credit += b.quantum
					if p, _ := b.queue.Peek(); b.credit < float64(p.r.Size) {
						// A single request larger than the quantum must
						// still make progress (DRR anti-starvation).
						b.credit = float64(p.r.Size)
					}
					any = true
				}
			}
			if !any {
				return nil
			}
		}
	}
	return nil
}

// dispatcher is what a script drives: one side of a comparison.
type dispatcher interface {
	share(id int, v float64) // a weight (cgroup) or a quantum (I/O core); creates the class
	submit(id int, r *device.Request)
	pick() (id int, r *device.Request) // r nil when nothing can be served
	depart(id int)
	credit(id int) float64
}

type refCgroupSide struct{ c *refCgroup }

func (s refCgroupSide) share(id int, w float64) { s.c.SetWeight(id, w) }
func (s refCgroupSide) submit(id int, r *device.Request) {
	if s.c.classes[id] == nil {
		s.c.SetWeight(id, 1)
	}
	s.c.classes[id].queue.Push(r)
}
func (s refCgroupSide) pick() (int, *device.Request) {
	cl := s.c.pick()
	if cl == nil {
		return 0, nil
	}
	r, _ := cl.queue.Pop()
	cl.credit -= float64(r.Size)
	return cl.id, r
}
func (s refCgroupSide) depart(int)            {}
func (s refCgroupSide) credit(id int) float64 { return s.c.classes[id].credit }

type refIOCoreSide struct{ c *refIOCore }

func (s refIOCoreSide) share(id int, q float64) { s.c.SetQuantum(store.DomID(id), q) }
func (s refIOCoreSide) submit(id int, r *device.Request) {
	s.c.buffer(store.DomID(id)).queue.Push(&pendingReq{r: r})
}
func (s refIOCoreSide) pick() (int, *device.Request) {
	b := s.c.next()
	if b == nil {
		return 0, nil
	}
	p, _ := b.queue.Pop()
	b.credit -= float64(p.r.Size)
	return int(b.dom), p.r
}
func (s refIOCoreSide) depart(int)            {}
func (s refIOCoreSide) credit(id int) float64 { return s.c.buffers[store.DomID(id)].credit }

// The change: the real dispatchers' class creation over the one drr.
type cgroupSide struct{ c *Cgroup }

func (s cgroupSide) share(id int, w float64)          { s.c.SetWeight(id, w) }
func (s cgroupSide) submit(id int, r *device.Request) { s.c.drr.push(s.c.class(id), r, 0) }
func (s cgroupSide) pick() (int, *device.Request)     { return pickDRR(&s.c.drr) }
func (s cgroupSide) depart(id int)                    { s.c.drr.depart(id) }
func (s cgroupSide) credit(id int) float64            { return s.c.drr.byID[id].credit }

type ioCoreSide struct{ c *IOCore }

func (s ioCoreSide) share(id int, q float64) { s.c.SetQuantum(store.DomID(id), q) }
func (s ioCoreSide) submit(id int, r *device.Request) {
	s.c.drr.push(s.c.buffer(store.DomID(id)), r, 0)
}
func (s ioCoreSide) pick() (int, *device.Request) { return pickDRR(&s.c.drr) }
func (s ioCoreSide) depart(id int)                { s.c.drr.depart(id) }
func (s ioCoreSide) credit(id int) float64        { return s.c.drr.byID[id].credit }

func pickDRR(d *drr) (int, *device.Request) {
	cl := d.next()
	if cl == nil {
		return 0, nil
	}
	r := d.pop(cl).r
	for id, c := range d.byID {
		if c == cl {
			return id, r
		}
	}
	panic("drr picked a class it does not index")
}

// runScript drives ref and drr through steps seeded operations: class
// creation in random id order, submits of random sizes (up to eight
// quanta), weight or quantum changes (zero included), completions under
// a random in-flight cap, departures and requests for departed classes.
// After every step both must have dispatched the same requests in the
// same order and every class must hold the same credit.
func runScript(t *testing.T, seed uint64, steps int, ref, got dispatcher, shares []float64) {
	t.Helper()
	rng := stats.NewStream(seed, "drr-script")
	known := map[int]bool{} // created, departed or not
	var ids []int           // creation order, for deterministic choice
	live := map[int]bool{}
	var inFlight []*device.Request
	capacity := 1 + rng.Intn(4)
	create := func(id int) {
		if !known[id] {
			known[id], live[id] = true, true
			ids = append(ids, id)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 8: // a new class, with a share
			id := rng.Intn(400)
			create(id)
			v := shares[rng.Intn(len(shares))]
			ref.share(id, v)
			got.share(id, v)
		case op < 50: // a request: mostly for a known class, departed ones included
			id := rng.Intn(400)
			if len(ids) > 0 && rng.Bool(0.9) {
				id = ids[rng.Intn(len(ids))]
			}
			create(id)
			size := int64(512 * (1 + rng.Intn(4096))) // to 2 MiB: eight 256 KiB quanta
			ref.submit(id, &device.Request{Size: size})
			got.submit(id, &device.Request{Size: size})
		case op < 60: // a share change on a known class
			if len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				v := shares[rng.Intn(len(shares))]
				ref.share(id, v)
				got.share(id, v)
			}
		case op < 90: // a completion frees a slot
			if len(inFlight) > 0 {
				i := rng.Intn(len(inFlight))
				inFlight = slices.Delete(inFlight, i, i+1)
			}
		case op < 97: // a departure
			if len(live) > 0 {
				id := ids[rng.Intn(len(ids))]
				if live[id] {
					delete(live, id)
					ref.depart(id)
					got.depart(id)
				}
			}
		default:
			capacity = 1 + rng.Intn(4)
		}
		for len(inFlight) < capacity {
			rid, rr := ref.pick()
			gid, gr := got.pick()
			if rid != gid || rr != nil && gr != nil && rr.Size != gr.Size || (rr == nil) != (gr == nil) {
				t.Fatalf("seed %d step %d: reference dispatched class %d (%v), drr class %d (%v)", seed, step, rid, rr, gid, gr)
			}
			if rr == nil {
				break
			}
			inFlight = append(inFlight, rr)
		}
		for _, id := range ids {
			if rc, gc := ref.credit(id), got.credit(id); rc != gc {
				t.Fatalf("seed %d step %d: class %d credit %v, reference %v", seed, step, id, gc, rc)
			}
		}
	}
}

// TestDRRMatchesTheParentScans holds the one drr to the two scans it
// replaced, under each dispatcher's class creation and quantum rule, for
// 10k seeded steps at each of five seeds.
func TestDRRMatchesTheParentScans(t *testing.T) {
	weights := []float64{0, 0.01, 0.5, 1, 1, 2, 3.7, 8}
	quanta := []float64{0, -1, 4096, 64 << 10, 256 << 10, 1 << 20, 3e5}
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("cgroup/seed%d", seed), func(t *testing.T) {
			ref := refCgroupSide{&refCgroup{classes: map[int]*cgClass{}, quantumBase: 256 << 10}}
			runScript(t, seed, 10_000, ref, cgroupSide{&Cgroup{}}, weights)
		})
		t.Run(fmt.Sprintf("iocore/seed%d", seed), func(t *testing.T) {
			ref := refIOCoreSide{&refIOCore{buffers: map[store.DomID]*coreBuffer{}}}
			runScript(t, seed, 10_000, ref, ioCoreSide{&IOCore{}}, quanta)
		})
	}
}

// TestDepartedGuestLeavesTheRoundRobin: a host that guests come and go on
// walks its live guests' classes and no others. 1,000 cycles of create,
// one read, remove on a backend host (the guest's cgroup class) and on a
// dedicated one (its buffer on the I/O core) — the parent's rings read
// 1,000 at the end.
func TestDepartedGuestLeavesTheRoundRobin(t *testing.T) {
	for _, mode := range []IOMode{ModeBackend, ModeDedicated} {
		k := sim.NewKernel()
		h := New(k, Config{Mode: mode}, stats.NewStream(19, "host"))
		guestClasses := func() int {
			n := len(h.cg.drr.ring) - len(h.iocores) // dedicated: the cores' own classes
			for _, c := range h.iocores {
				n += len(c.drr.ring)
			}
			return n
		}
		for i := 0; i < 1000; i++ {
			rt := h.CreateGuest(guest.Config{VCPUs: 1})
			rt.G.Disk("xvda").Read(rt.G.NewProcess(1), 4096, false, nil)
			k.Run()
			if n := guestClasses(); n != 1 {
				t.Fatalf("mode %d cycle %d: %d guest classes in the round robins with one guest doing I/O", mode, i, n)
			}
			h.RemoveGuest(rt.G.ID())
			if n := guestClasses(); n != len(h.Guests()) {
				t.Fatalf("mode %d cycle %d: %d guest classes in the round robins, %d live guests", mode, i, n, len(h.Guests()))
			}
		}
	}
}

// A request of a removed guest that was already on its way — queued in
// its block layer or crossing the ring when the guest went — is served
// from the guest's own class, at the weight it had, and the class leaves
// the ring again once drained.
func TestStragglerRejoinsItsDepartedClass(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend}, stats.NewStream(20, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	dom := int(rt.G.ID())
	h.SetGuestIOWeight(rt.G.ID(), 3)
	p := rt.G.NewProcess(1)
	for i := 0; i < 4; i++ {
		rt.G.Disk("xvda").Read(p, 4096, false, nil)
	}
	h.RemoveGuest(rt.G.ID()) // all four are still crossing the ring
	if n := len(h.cg.drr.ring); n != 0 {
		t.Fatalf("ring holds %d classes after the drained guest left, want 0", n)
	}
	k.Run()
	if got := h.cg.BytesDispatched(dom); got != 4*4096 {
		t.Fatalf("the departed guest's class dispatched %v bytes, want %d", got, 4*4096)
	}
	if w := h.cg.Weight(dom); w != 3 {
		t.Fatalf("stragglers were served at weight %v, want the guest's 3", w)
	}
	if n := len(h.cg.drr.ring); n != 0 {
		t.Fatalf("ring holds %d classes after the stragglers drained, want 0", n)
	}
}

// instantDevice completes a request 1 µs after it is submitted, so a
// benchmark over it measures the host path's own cost.
type instantDevice struct {
	device.BlockDevice
	k *sim.Kernel
}

func (d instantDevice) Submit(r *device.Request) { d.k.After(sim.Microsecond, r.Done) }

// BenchmarkHostDispatch: one dedicated I/O core holding 1,000 guest
// buffers, 8 of them backlogged, dispatching into the cgroup — the shape
// an arrival run grows a host into. One op is one request enqueued,
// picked by the core, picked by the cgroup and completed.
func BenchmarkHostDispatch(b *testing.B) {
	k := sim.NewKernel()
	core := NewIOCore(k, 0, NewCgroup(k, instantDevice{k: k}, 64), 0, 0)
	for dom := store.DomID(1); dom <= 1000; dom++ {
		core.SetQuantum(dom, 64<<10)
	}
	reqs := make([]device.Request, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(reqs) {
		batch := reqs[:min(len(reqs), b.N-n)]
		for i := range batch {
			batch[i] = device.Request{Op: device.Read, Size: 64 << 10}
			core.Enqueue(store.DomID(1+125*(i%8)), &batch[i])
		}
		k.Run()
	}
}
