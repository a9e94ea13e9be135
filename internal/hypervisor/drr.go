package hypervisor

import (
	"cmp"
	"math"
	"slices"

	"iorchestra/internal/device"
	"iorchestra/internal/sim"
)

// drr is byte-denominated deficit round robin, the one scan both host
// dispatchers run: the Cgroup over its classes (a VM in backend mode, an
// I/O core in dedicated mode) and each IOCore over its per-VM buffers
// (Algorithm 3). The dispatchers differ only in what they feed it: a new
// class's ring key (the cgroup's id, the I/O core's first-use order) and
// its quantum.
//
// A walk starts at the cursor and goes round the ring in key order. A
// class whose credit covers its head request is served and the cursor
// stays on it, so it drains while its credit lasts; a class with an empty
// queue forfeits its credit. When a whole round finds nothing to serve,
// every backlogged class is granted its quantum — at least its head
// request's size unless its quantum is zero, so a request larger than the
// quantum still makes progress — and the ring is walked once more.
//
// The ring holds the classes with work: a class joins it with its first
// queued request and leaves when a walk finds it drained, its credit
// forfeited. Picks are the ones a ring of every class would make, since a
// drained class is only ever skipped. A class keeps its byID entry when
// it leaves — its guest's departure included — so a later request brings
// it back where it was, weight and quantum intact.
type drr struct {
	byID map[int]*drrClass // every class ever added; never read by the walk
	ring []*drrClass       // classes with work (or drained since a walk passed), ascending key
	// cursor is the key of the class the walk starts at — or of the
	// class that sat there before leaving, the walk then starting at the
	// next. A key, not an index, so a class leaving or joining the ring
	// moves nothing.
	cursor int
	queued int // requests queued across the ring
}

type drrClass struct {
	key     int
	quantum float64 // credit granted per round, bytes
	credit  float64
	queue   sim.FIFO[arrival]
	out     bool // not in the ring
}

// arrival is one request waiting in a class and when it arrived.
type arrival struct {
	r  *device.Request
	at sim.Time
}

func byKey(cl *drrClass, key int) int { return cmp.Compare(cl.key, key) }

// add creates class id at ring key key. The cursor keeps its place in
// the order of every class ever added — the parent cgroup's sort.Ints
// kept the cursor's index — so a class added below it moves it to the
// class just before it, in the ring or not. The class starts out of the
// ring.
func (d *drr) add(id, key int, quantum float64) *drrClass {
	if d.byID == nil {
		d.byID, d.cursor = map[int]*drrClass{}, math.MinInt
	}
	if key < d.cursor {
		prev := key
		for _, cl := range d.byID {
			if cl.key < d.cursor && cl.key > prev {
				prev = cl.key
			}
		}
		d.cursor = prev
	}
	cl := &drrClass{key: key, quantum: quantum, out: true}
	d.byID[id] = cl
	return cl
}

// push queues r on cl, arriving now; a class out of the ring joins it.
func (d *drr) push(cl *drrClass, r *device.Request, now sim.Time) {
	if cl.out {
		at, _ := slices.BinarySearchFunc(d.ring, cl.key, byKey)
		d.ring = slices.Insert(d.ring, at, cl)
		cl.out = false
	}
	cl.queue.Push(arrival{r: r, at: now})
	d.queued++
}

// next returns the class to serve, or nil when no class can be served.
func (d *drr) next() *drrClass {
	for sweep := 0; sweep < 2; sweep++ {
		i, _ := slices.BinarySearchFunc(d.ring, d.cursor, byKey)
		for n := len(d.ring); n > 0; n-- {
			if i == len(d.ring) {
				i = 0
			}
			cl := d.ring[i]
			head, ok := cl.queue.Peek()
			switch {
			case ok && cl.credit >= float64(head.r.Size):
				d.cursor = cl.key
				return cl
			case !ok:
				cl.credit, cl.out = 0, true
				d.ring = slices.Delete(d.ring, i, i+1)
				continue
			}
			i++
		}
		if sweep == 0 {
			d.replenish()
		}
	}
	return nil
}

// replenish starts a round: every class gains its quantum. It runs after
// a walk that served nothing, which left only backlogged classes in the
// ring.
func (d *drr) replenish() {
	for _, cl := range d.ring {
		head, _ := cl.queue.Peek()
		cl.credit += cl.quantum
		if size := float64(head.r.Size); cl.credit < size && cl.quantum > 0 {
			cl.credit = size
		}
	}
}

// pop dequeues cl's head request and charges it to cl's credit.
func (d *drr) pop(cl *drrClass) arrival {
	q, _ := cl.queue.Pop()
	d.queued--
	size := float64(q.r.Size)
	cl.credit -= size
	return q
}
