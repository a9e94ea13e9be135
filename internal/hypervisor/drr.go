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
// A departed class leaves the ring once it is drained with no credit, and
// keeps its byID entry, so a request of its guest that was already on the
// way brings it back where it was, weight and quantum intact. The ring
// then holds the live classes only, and picks are the ones a ring that
// kept every class would make: a drained class is only ever skipped.
type drr struct {
	byID map[int]*drrClass // every class, departed ones too; never read by the walk
	ring []*drrClass       // classes that can have work, ascending key
	// cursor is the key of the class the walk starts at — or of the
	// departed class that sat there, the walk then starting at the next.
	// A key, not an index, so a class leaving or rejoining the ring moves
	// nothing.
	cursor int
	queued int // requests queued across the ring
}

type drrClass struct {
	key     int
	quantum float64 // credit granted per round, bytes
	credit  float64
	queue   sim.FIFO[arrival]
	served  float64 // lifetime bytes served
	gone    bool    // departed
	out     bool    // departed and out of the ring
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
// class just before it, departed or not.
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
	cl := &drrClass{key: key, quantum: quantum}
	d.byID[id] = cl
	d.insert(cl)
	return cl
}

func (d *drr) insert(cl *drrClass) {
	at, _ := slices.BinarySearchFunc(d.ring, cl.key, byKey)
	d.ring = slices.Insert(d.ring, at, cl)
	cl.out = false
}

// push queues r on cl, arriving now.
func (d *drr) push(cl *drrClass, r *device.Request, now sim.Time) {
	if cl.out {
		d.insert(cl)
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
				cl.credit = 0
				if cl.gone {
					d.drop(i)
					continue
				}
			}
			i++
		}
		if sweep == 0 && !d.replenish() {
			return nil
		}
	}
	return nil
}

// replenish starts a round: every backlogged class gains its quantum. It
// reports whether any class is backlogged.
func (d *drr) replenish() bool {
	any := false
	for _, cl := range d.ring {
		head, ok := cl.queue.Peek()
		if !ok {
			continue
		}
		cl.credit += cl.quantum
		if size := float64(head.r.Size); cl.credit < size && cl.quantum > 0 {
			cl.credit = size
		}
		any = true
	}
	return any
}

// pop dequeues cl's head request and charges it to cl's credit.
func (d *drr) pop(cl *drrClass) arrival {
	q, _ := cl.queue.Pop()
	d.queued--
	size := float64(q.r.Size)
	cl.credit -= size
	cl.served += size
	return q
}

// depart marks class id departed. A drained class without credit leaves
// the ring now; any other leaves when a walk finds it drained.
func (d *drr) depart(id int) {
	cl := d.byID[id]
	if cl == nil || cl.gone {
		return
	}
	cl.gone = true
	if cl.queue.Len() == 0 && cl.credit == 0 {
		i, _ := slices.BinarySearchFunc(d.ring, cl.key, byKey)
		d.drop(i)
	}
}

func (d *drr) drop(i int) {
	d.ring[i].out = true
	d.ring = slices.Delete(d.ring, i, i+1)
}
