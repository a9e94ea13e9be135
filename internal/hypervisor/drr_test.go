package hypervisor

import (
	"fmt"
	"runtime"
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
// each dispatcher did. Every class ever created stays in them.

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
func (s refIOCoreSide) credit(id int) float64 { return s.c.buffers[store.DomID(id)].credit }

// The change: the real dispatchers' class creation over the one drr.
type cgroupSide struct{ c *Cgroup }

func (s cgroupSide) share(id int, w float64)          { s.c.SetWeight(id, w) }
func (s cgroupSide) submit(id int, r *device.Request) { s.c.drr.push(s.c.class(id), r, 0) }
func (s cgroupSide) pick() (int, *device.Request)     { return pickDRR(&s.c.drr) }
func (s cgroupSide) credit(id int) float64            { return s.c.drr.byID[id].credit }

type ioCoreSide struct{ c *IOCore }

func (s ioCoreSide) share(id int, q float64) { s.c.SetQuantum(store.DomID(id), q) }
func (s ioCoreSide) submit(id int, r *device.Request) {
	s.c.drr.push(s.c.buffer(store.DomID(id)), r, 0)
}
func (s ioCoreSide) pick() (int, *device.Request) { return pickDRR(&s.c.drr) }
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
// quanta), mostly to known classes, drained ones included, weight or
// quantum changes (zero included) and completions under a random
// in-flight cap. After every step both must have dispatched the same
// requests in the same order and every class must hold the same credit.
func runScript(t *testing.T, seed uint64, steps int, ref, got dispatcher, shares []float64) {
	t.Helper()
	rng := stats.NewStream(seed, "drr-script")
	known := map[int]bool{}
	var ids []int // creation order, for deterministic choice
	var inFlight []*device.Request
	capacity := 1 + rng.Intn(4)
	create := func(id int) {
		if !known[id] {
			known[id] = true
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
		case op < 50: // a request: mostly for a known class
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

// TestDRRFairnessBound checks the fairness bound this drr guarantees —
// Shreedhar & Varghese's, with this drr's constant — at every pick of
// seeded scripts in which every class stays backlogged, under both
// dispatchers' quantum rules: the Cgroup's cgQuantum × weight and the
// IOCore's Q_i.
//
// The bound. Let M be the largest request size, Q_i > 0 class i's
// quantum, S_i the bytes served to i since all classes were created with
// zero credit, and R the number of rounds begun so far (replenishments).
//   - A class is served only while its credit covers its head request,
//     so credit never goes negative, and a round begins only when a
//     whole walk served nobody, so every class's credit c is then below
//     its head request: 0 ≤ c < M.
//   - A round grants max(Q_i, h − c) for head request h — the quantum,
//     or the bump to the head's size — which lies in [Q_i, E_i], where
//     E_i = max(Q_i, M).
//   - Within a round credit only falls, so it stays below the
//     just-granted max(c + Q_i, h) < M + Q_i.
//
// S_i is the credit granted minus the credit held, so
//
//	R·Q_i − Q_i − M < S_i ≤ R·E_i,
//
// and eliminating R between class i's upper side and class j's lower
// side gives, for every ordered pair and at every instant,
//
//	S_i/E_i − S_j/Q_j < 1 + M/Q_j.
//
// With every quantum at least M (E_i = Q_i) this is the normalised-service
// bound |S_i/Q_i − S_j/Q_j| < 1 + M/min(Q_i, Q_j), measured from a common
// zero-credit start. Two rules set the constant: every class is served
// until its credit runs short before a round begins, and the round then
// grants all of them at once, so the credit carried into a round is below
// one request (c < M); and a quantum below M is bumped to the head's
// size, so such a class can be granted up to M a round and is normalised
// by E_i = M on the upper side.
func TestDRRFairnessBound(t *testing.T) {
	const maxReq = 256 << 10 // M: every quantum from weight 1 or 256 KiB up covers it
	weights := []float64{0.25, 0.5, 1, 2, 3.7, 8}
	quanta := []float64{4096, 64 << 10, 256 << 10, 3e5, 1 << 20, 2 << 20}
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("cgroup/seed%d", seed), func(t *testing.T) {
			checkFairness(t, seed, cgroupSide{&Cgroup{}}, weights, func(w float64) float64 { return cgQuantum * w }, maxReq)
		})
		t.Run(fmt.Sprintf("iocore/seed%d", seed), func(t *testing.T) {
			checkFairness(t, seed, ioCoreSide{&IOCore{}}, quanta, func(q float64) float64 { return q }, maxReq)
		})
	}
}

// checkFairness creates 2 to 8 classes with shares drawn from shares,
// fills each with 4 requests of up to maxReq bytes and makes 20,000
// picks, refilling the picked class after each so none ever drains, and
// checks TestDRRFairnessBound's bound over every ordered pair after every
// pick.
func checkFairness(t *testing.T, seed uint64, d dispatcher, shares []float64, quantum func(float64) float64, maxReq int64) {
	t.Helper()
	rng := stats.NewStream(seed, "drr-fairness")
	n := 2 + rng.Intn(7)
	q := make([]float64, n)
	served := make([]float64, n)
	request := func() *device.Request { return &device.Request{Size: 512 * (1 + rng.Int63n(maxReq/512))} }
	for id := range q {
		v := shares[rng.Intn(len(shares))]
		d.share(id, v)
		q[id] = quantum(v)
		for i := 0; i < 4; i++ {
			d.submit(id, request())
		}
	}
	m := float64(maxReq)
	for step := 0; step < 20_000; step++ {
		id, r := d.pick()
		if r == nil {
			t.Fatalf("seed %d step %d: nothing to pick with every class backlogged", seed, step)
		}
		served[id] += float64(r.Size)
		d.submit(id, request())
		for i := range q {
			for j := range q {
				if gap := served[i]/max(q[i], m) - served[j]/q[j]; gap >= 1+m/q[j] {
					t.Fatalf("seed %d step %d: class %d (Q %v) served %v bytes, class %d (Q %v) %v: normalised gap %.3f, bound %.3f",
						seed, step, i, q[i], served[i], j, q[j], served[j], gap, 1+m/q[j])
				}
			}
		}
	}
}

// ringLen counts the classes on every round robin of h.
func ringLen(h *Host) int {
	n := len(h.cg.drr.ring)
	for _, c := range h.iocores {
		n += len(c.drr.ring)
	}
	return n
}

// TestDepartedGuestLeavesTheRoundRobin: a class is on its round robin's
// ring only while it has work, so a host whose kernel has run dry holds
// empty rings however many guests came and went. 1,000 cycles of create,
// one read, drain, remove on a backend host (the guest's cgroup class)
// and on a dedicated one (its buffer on the I/O core, the core's class
// in the cgroup) — the parent's rings read 1,000 at the end. Each
// departed guest keeps its class, off the ring, for a straggler; its
// host-path latency aggregate goes with it (the parent kept one per
// guest ever admitted unless a flush controller forgot it).
func TestDepartedGuestLeavesTheRoundRobin(t *testing.T) {
	for _, mode := range []IOMode{ModeBackend, ModeDedicated} {
		k := sim.NewKernel()
		h := New(k, Config{Mode: mode}, stats.NewStream(19, "host"))
		for i := 0; i < 1000; i++ {
			rt := h.CreateGuest(guest.Config{VCPUs: 1})
			dom := rt.G.ID()
			rt.G.Disk("xvda").Read(rt.G.NewProcess(1), 4096, false, nil)
			k.Run()
			class := h.cg.drr.byID[int(dom)]
			if mode == ModeDedicated {
				class = h.iocores[rt.HomeSocket].drr.byID[int(dom)]
			}
			if class == nil {
				t.Fatalf("mode %d cycle %d: the read did not go through the guest's class", mode, i)
			}
			if n, _ := h.cg.PathLatency(int(dom)); n != 1 {
				t.Fatalf("mode %d cycle %d: host-path aggregate holds %d completions, want 1", mode, i, n)
			}
			if n := ringLen(h); n != 0 {
				t.Fatalf("mode %d cycle %d: %d classes on the rings of a host run dry", mode, i, n)
			}
			h.RemoveGuest(dom)
			if n := ringLen(h); n != 0 || !class.out {
				t.Fatalf("mode %d cycle %d: %d classes on the rings after the guest left", mode, i, n)
			}
		}
		if n := len(h.cg.pathLat); n != 0 {
			t.Fatalf("mode %d: host-path aggregates of %d departed guests kept", mode, n)
		}
	}
}

// A request of a removed guest that was already on its way — queued in
// its block layer or crossing the ring when the guest went — is served
// from the guest's own class, at the weight it had: the class, off the
// ring while nothing is queued on it, joins for the stragglers and leaves
// again once drained.
func TestStragglerRejoinsItsDepartedClass(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, Config{Mode: ModeBackend}, stats.NewStream(20, "host"))
	rt := h.CreateGuest(guest.Config{VCPUs: 1})
	dom := int(rt.G.ID())
	h.SetClassWeight(dom, 3)
	p := rt.G.NewProcess(1)
	done := 0
	for i := 0; i < 4; i++ {
		rt.G.Disk("xvda").Read(p, 4096, false, func() { done++ })
	}
	h.RemoveGuest(rt.G.ID()) // all four are still crossing the ring
	if n := len(h.cg.drr.ring); n != 0 {
		t.Fatalf("ring holds %d classes with nothing queued, want 0", n)
	}
	k.Run()
	if done != 4 {
		t.Fatalf("%d of the departed guest's 4 reads completed", done)
	}
	if w := h.cg.drr.byID[dom].quantum / cgQuantum; w != 3 {
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

// dispatchBed is one dedicated I/O core holding 1,000 guest buffers, 8 of
// them backlogged, dispatching into the cgroup over an instantDevice: the
// shape an arrival run grows a host into. enqueue places the requests of
// reqs round-robin over the 8; running the kernel then has each picked by
// the core, picked by the cgroup and completed.
func dispatchBed() (k *sim.Kernel, core *IOCore, enqueue func(reqs []device.Request)) {
	k = sim.NewKernel()
	core = NewIOCore(k, 0, NewCgroup(k, instantDevice{k: k}, 64), 0, 0)
	for dom := store.DomID(1); dom <= 1000; dom++ {
		core.SetQuantum(dom, 64<<10)
	}
	return k, core, func(reqs []device.Request) {
		for i := range reqs {
			reqs[i] = device.Request{Op: device.Read, Size: 64 << 10}
			core.Enqueue(store.DomID(1+125*(i%8)), &reqs[i])
		}
	}
}

// TestRingHoldsTheBacklogged: dispatchBed's I/O core knows 1,000 buffers;
// from the first dispatch on, its ring holds at most the 8 with work (the
// parent's held all 1,000), and once the kernel has run dry it and the
// cgroup's ring are empty.
func TestRingHoldsTheBacklogged(t *testing.T) {
	k, core, enqueue := dispatchBed()
	enqueue(make([]device.Request, 256))
	for k.Step() {
		if n := len(core.drr.ring); n > 8 {
			t.Fatalf("at %v the I/O core's ring holds %d buffers, 8 have work", k.Now(), n)
		}
	}
	if n, m := len(core.drr.ring), len(core.out.drr.ring); n != 0 || m != 0 {
		t.Fatalf("rings of a drained path hold %d (core) and %d (cgroup) classes", n, m)
	}
}

// BenchmarkHostDispatch: one op is one request through dispatchBed.
func BenchmarkHostDispatch(b *testing.B) {
	k, _, enqueue := dispatchBed()
	reqs := make([]device.Request, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(reqs) {
		enqueue(reqs[:min(len(reqs), b.N-n)])
		k.Run()
	}
}

// TestHostDispatchAllocs pins the host data path's cost per request once
// the I/O core's trailing latency window is full (1 s of simulated time,
// about 180 k requests; before that the window's ring is still growing).
// A request then costs 1.03 allocations and 132 bytes: the cgroup's
// completion closure, which carries the request's arrival, and two
// 64-event slab shares for the core's hand-off and the device's
// completion events.
func TestHostDispatchAllocs(t *testing.T) {
	k, _, enqueue := dispatchBed()
	reqs := make([]device.Request, 256)
	dispatch := func() { enqueue(reqs); k.Run() }
	for k.Now() < sim.Time(1100*sim.Millisecond) {
		dispatch()
	}
	const budget, byteBudget = 1.05, 140
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	perReq := testing.AllocsPerRun(100, dispatch) / float64(len(reqs))
	runtime.ReadMemStats(&m1)
	bytesPerReq := float64(m1.TotalAlloc-m0.TotalAlloc) / (101 * float64(len(reqs))) // AllocsPerRun warms up with one run more
	if perReq > budget || bytesPerReq > byteBudget {
		t.Errorf("a dispatched request allocates %.2f times and %.0f bytes, budget %.2f and %d", perReq, bytesPerReq, budget, byteBudget)
	} else {
		t.Logf("%.2f allocations, %.0f bytes per dispatched request (budget %.2f, %d)", perReq, bytesPerReq, budget, byteBudget)
	}
}
