package store

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"iorchestra/internal/sim"
)

// Path-index script steps for FuzzPathIndex: each is two bytes, the op in
// the low three bits of the first and the path (indexPaths) above them,
// then an argument.
const (
	indexWrite       = iota // Write(Dom0, path, arg)
	indexCursorWrite        // WriteCursor(Dom0, the path's cursor, arg)
	indexRemove             // Remove(Dom0, path)
	indexRead               // Read(Dom0, path): a by-path resolution
	indexCursorRead         // ReadCursor(Dom0, the path's cursor)
	indexAddDomain          // AddDomain(1 + arg%2)
	indexList               // List(Dom0, path)
	indexGuestWrite         // WriteCursor(1 + arg%2, the path's cursor, arg): refused outside its home
)

// indexPaths are the paths FuzzPathIndex creates, resolves and removes:
// two guest subtrees, their homes, the structural spine and a structural
// subtree outside it.
var indexPaths = [...]string{
	"/local/domain/1/a", "/local/domain/1/a/b", "/local/domain/1/a/b/c", "/local/domain/1/d",
	"/local/domain/2/a/b", "/local/domain/2/a", "/local/domain/1", "/local/domain/2",
	"/local/domain", "/c/d",
}

// FuzzPathIndex holds the lazily filled index to the tree. The input is
// a script of creates by path and by cursor, removes, re-creates and
// by-path and cursor resolutions over indexPaths; after every step every
// path (and each of its ancestors) resolves exactly as a walk from the
// root by name does — to its node, or, when it names none, to its
// deepest existing ancestor — every pinned cursor holds that node, and
// checkIndex finds the index holding only live nodes under their own
// paths, every structural node and home among them, and the unindexed
// counts matching the tree.
func FuzzPathIndex(f *testing.F) {
	step := func(op, path, arg byte) []byte { return []byte{op | path<<3, arg} }
	script := func(steps ...[]byte) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, s...)
		}
		return b
	}
	// A guest's keys made through cursors, then named by path.
	f.Add(script(step(indexAddDomain, 0, 0), step(indexCursorWrite, 2, 1), step(indexCursorWrite, 3, 2),
		step(indexRead, 1, 0), step(indexWrite, 2, 3), step(indexList, 1, 0)))
	// A cursor-made subtree removed by path and re-created through the
	// same cursors, then by path beside them.
	f.Add(script(step(indexAddDomain, 0, 0), step(indexCursorWrite, 2, 1), step(indexRemove, 0, 0),
		step(indexCursorRead, 2, 0), step(indexCursorWrite, 1, 4), step(indexWrite, 2, 5), step(indexRead, 0, 0),
		step(indexRemove, 6, 0), step(indexAddDomain, 0, 2), step(indexCursorWrite, 3, 6)))
	// Guest writes, refused and allowed, and a structural subtree.
	f.Add(script(step(indexAddDomain, 0, 1), step(indexGuestWrite, 4, 1), step(indexGuestWrite, 0, 1),
		step(indexCursorWrite, 9, 0), step(indexRemove, 8, 0), step(indexGuestWrite, 5, 1)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		_, s := newTestStore()
		var cursors [len(indexPaths)]Cursor
		for i, p := range indexPaths {
			cursors[i] = CursorAt(p)
		}
		for i := 0; i+1 < len(data); i += 2 {
			p, arg := int(data[i]>>3)%len(indexPaths), data[i+1]
			path, c, value := indexPaths[p], &cursors[p], fmt.Sprint(arg)
			switch data[i] & 7 {
			case indexWrite:
				s.Write(Dom0, path, value)
			case indexCursorWrite:
				s.WriteCursor(Dom0, c, value)
			case indexRemove:
				s.Remove(Dom0, path)
			case indexRead:
				s.Read(Dom0, path)
			case indexCursorRead:
				s.ReadCursor(Dom0, c)
			case indexAddDomain:
				s.AddDomain(DomID(1 + arg%2))
			case indexList:
				s.List(Dom0, path)
			case indexGuestWrite:
				s.WriteCursor(DomID(1+arg%2), c, value)
			}
			checkIndex(t, s, fmt.Sprintf("step %d", i/2))
			for _, p := range indexPaths {
				for q := p; q != "/"; q = dirOf(q) {
					checkResolves(t, i/2, s, q)
				}
			}
			for j := range cursors {
				if c := &cursors[j]; c.n != nil && c.n.live() && c.n != treeNode(s, c.path) {
					t.Fatalf("step %d: the cursor on %s pins a live node the tree does not hold there", i/2, c.path)
				}
			}
		}
	})
}

// checkResolves compares resolve, with and without the caller's probe,
// with a walk by name from the root: the node at path, or its deepest
// existing ancestor and the slash that follows it.
func checkResolves(t *testing.T, step int, s *Store, path string) {
	t.Helper()
	want, wantEnd := treeNode(s, path), len(path)
	for end := len(path); want == nil; {
		end = max(strings.LastIndexByte(path[:end], '/'), 0)
		want, wantEnd = treeNode(s, path[:max(end, 1)]), end
	}
	probed := s.index[path] == nil
	for _, byPath := range []bool{false, probed} {
		if n, end := s.resolve(path, byPath); n != want || end != wantEnd {
			t.Fatalf("step %d: resolve(%s, %v) = %s at %d, the tree gives %s at %d", step, path, byPath, n.path, end, want.path, wantEnd)
		}
	}
}

// Delivery-order script steps for FuzzDeliveryOrder: each is four bytes,
// the op (the first byte modulo orderOps), two arguments a and b, and dt,
// which says when the script goes on: modulo 4, in the same kernel event,
// in a new event at the same instant, half a notification latency on, or
// a whole one on.
const (
	orderWrite   = iota // write the value b%4 at orderPaths[a]
	orderRemove         // remove orderPaths[a]
	orderWatch          // watch orderPrefixes[a]; b's low bit makes the callback write, to orderPaths[b>>1], the value it heard with "x" appended while that is shorter than three bytes
	orderUnwatch        // unwatch the a-th live watch
	orderDefer          // run the next step dt on, as an event of its own, and go on with the one after it now
	orderTick           // schedule an event that does nothing, b%3 half latencies on
	orderOps
)

// orderLatency is the notification latency of both sides of
// FuzzDeliveryOrder.
const orderLatency = 10 * sim.Microsecond

var orderPaths = [...]string{
	"/local/domain/1/a", "/local/domain/1/a/b", "/local/domain/1/c", "/local/domain/2/a",
	"/x/y", "/local/domain/1", "/x", "/local/domain",
}

var orderPrefixes = [...]string{
	"/", "/local/domain", "/local/domain/1", "/local/domain/1/a", "/local/domain/2", "/x",
}

// orderSide is one side of FuzzDeliveryOrder: the store, or the
// reference that schedules one kernel event per notification.
type orderSide interface {
	write(path, value string)
	remove(path string)
	watch(prefix string, fn func(path, value string)) (unwatch func())
}

type storeSide struct{ s *Store }

func (o storeSide) write(path, value string) { o.s.Write(Dom0, path, value) }
func (o storeSide) remove(path string)       { o.s.Remove(Dom0, path) }
func (o storeSide) watch(prefix string, fn func(path, value string)) func() {
	id, _ := o.s.Watch(Dom0, prefix, fn)
	return func() { o.s.Unwatch(id) }
}

// refSide is the store's watch contract written plainly: the tree as a
// set of paths, the watches in registration order, and, per matching
// watch of a write or remove, one kernel event that calls it unless it
// was removed meanwhile. The fault hook is asked per matching watch, in
// the order the store asks it.
type refSide struct {
	k     *sim.Kernel
	nodes map[string]bool
	ws    []*refWatch
	fault func() (sim.Duration, bool)
}

type refWatch struct {
	prefix  string
	fn      func(path, value string)
	removed bool
}

func (r *refSide) write(path, value string) {
	for p := path; p != "/"; p = dirOf(p) {
		r.nodes[p] = true
	}
	r.fire(path, value)
}

func (r *refSide) remove(path string) {
	if !r.nodes[path] {
		return
	}
	for p := range r.nodes {
		if under(p, path) {
			delete(r.nodes, p)
		}
	}
	r.fire(path, "")
}

func (r *refSide) fire(path, value string) {
	for _, w := range r.ws {
		if !under(path, w.prefix) {
			continue
		}
		extra, drop := r.fault()
		if drop {
			continue
		}
		r.k.After(orderLatency+extra, func() {
			if !w.removed {
				w.fn(path, value)
			}
		})
	}
}

func (r *refSide) watch(prefix string, fn func(path, value string)) func() {
	w := &refWatch{prefix: prefix, fn: fn}
	r.ws = append(r.ws, w)
	return func() {
		w.removed = true
		r.ws = slices.DeleteFunc(r.ws, func(x *refWatch) bool { return x == w })
	}
}

// orderFaults returns a fault decision per call, the same sequence for a
// seed on both sides: mostly none, sometimes a drop or an extra half or
// whole latency.
func orderFaults(seed byte) func() (sim.Duration, bool) {
	calls := uint32(0)
	return func() (sim.Duration, bool) {
		calls++
		x := calls*2654435761 + uint32(seed)*0x9e3779b9
		x ^= x >> 15
		x *= 0x85ebca6b
		x ^= x >> 13
		switch x >> 29 {
		case 0:
			return 0, true
		case 1:
			return orderLatency / 2, false
		case 2:
			return orderLatency, false
		}
		return 0, false
	}
}

// runOrderScript plays script on k against side and returns every
// delivery as "<time> w<watch> <path>=<value>", watches numbered in
// registration order.
func runOrderScript(k *sim.Kernel, side orderSide, script []byte) []string {
	var log []string
	var live []func() // unwatch of each live watch, in registration order
	watches := 0
	exec := func(op []byte) {
		a, b := int(op[1]), int(op[2])
		switch op[0] % orderOps {
		case orderWrite:
			side.write(orderPaths[a%len(orderPaths)], fmt.Sprint(b%4))
		case orderRemove:
			side.remove(orderPaths[a%len(orderPaths)])
		case orderWatch:
			w, reflect, target := watches, b&1 == 1, orderPaths[(b>>1)%len(orderPaths)]
			watches++
			live = append(live, side.watch(orderPrefixes[a%len(orderPrefixes)], func(path, value string) {
				log = append(log, fmt.Sprintf("%d w%d %s=%s", k.Now(), w, path, value))
				if reflect && len(value) < 3 {
					side.write(target, value+"x")
				}
			}))
		case orderUnwatch:
			if len(live) > 0 {
				i := a % len(live)
				live[i]()
				live = slices.Delete(live, i, i+1)
			}
		case orderTick:
			k.After(sim.Duration(b%3)*orderLatency/2, func() {})
		}
	}
	var from func(i int)
	from = func(i int) {
		for i+4 <= len(script) {
			op := script[i : i+4]
			i += 4
			dt := sim.Duration(int(op[3]%4)-1) * orderLatency / 2 // -1 half: the same event
			if op[0]%orderOps == orderDefer {
				if i+4 <= len(script) {
					deferred := script[i : i+4]
					i += 4
					k.After(max(dt, 0), func() { exec(deferred) })
				}
				continue
			}
			exec(op)
			if dt >= 0 {
				k.After(dt, func() { from(i) })
				return
			}
		}
	}
	k.At(0, func() { from(0) })
	k.Run()
	return log
}

// FuzzDeliveryOrder holds the store's delivery to the reference that
// schedules one kernel event per notification: the same callbacks, in
// the same order, at the same instants, through writes and removes,
// watches added and removed mid-flight, kernel events scheduled between
// writes, delayed and dropped notifications, and writes made from
// callbacks — with no more kernel events than the reference takes.
func FuzzDeliveryOrder(f *testing.F) {
	step := func(op, a, b, dt byte) []byte { return []byte{op, a, b, dt} }
	script := func(seed byte, steps ...[]byte) []byte {
		b := []byte{seed}
		for _, s := range steps {
			b = append(b, s...)
		}
		return b
	}
	const same, next, half, whole = 0, 1, 2, 3
	// Two writes of one instant share an event, unless an event was
	// scheduled between them — here an unwatch due when they are. Seed 0
	// faults none of the first nine notifications.
	f.Add(script(0x00, step(orderWatch, 0, 0, same), step(orderWrite, 0, 1, same),
		step(orderDefer, 0, 0, whole), step(orderUnwatch, 0, 0, 0), step(orderWrite, 1, 2, same),
		step(orderWrite, 2, 3, whole), step(orderTick, 0, 2, same), step(orderWrite, 2, 1, next)))
	// Callbacks that write, a delayed and a dropped notification, a
	// remove of a watched subtree.
	f.Add(script(0x11, step(orderWatch, 2, 1, same), step(orderWatch, 0, 5, same), step(orderWatch, 3, 0, same),
		step(orderWrite, 0, 0, half), step(orderWrite, 3, 1, next), step(orderRemove, 5, 0, half),
		step(orderWrite, 1, 2, same), step(orderUnwatch, 1, 0, whole), step(orderWrite, 6, 3, same)))
	// A watch registered while a write's notifications are in flight.
	f.Add(script(0x42, step(orderWrite, 4, 0, same), step(orderWatch, 5, 0, next), step(orderWrite, 4, 1, half),
		step(orderDefer, 0, 0, half), step(orderWatch, 0, 0, 0), step(orderWrite, 4, 2, same)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 257 {
			data = data[:257]
		}
		seed, script := data[0], data[1:]
		k := sim.NewKernel()
		s := New(k, orderLatency)
		faults := orderFaults(seed)
		s.SetFaultHooks(&FaultHooks{Delivery: func(DomID, string) (sim.Duration, bool) { return faults() }})
		got := runOrderScript(k, storeSide{s}, script)

		rk := sim.NewKernel()
		want := runOrderScript(rk, &refSide{k: rk, nodes: map[string]bool{}, fault: orderFaults(seed)}, script)
		if !slices.Equal(got, want) {
			t.Fatalf("deliveries differ from one event per notification:\n got %q\nwant %q", got, want)
		}
		if k.Executed() > rk.Executed() {
			t.Fatalf("the store took %d kernel events, one per notification takes %d", k.Executed(), rk.Executed())
		}
		if s.noteLen != 0 || s.pendHead != nil {
			t.Fatalf("%d notes and a pending record left after the kernel ran dry", s.noteLen)
		}
	})
}
