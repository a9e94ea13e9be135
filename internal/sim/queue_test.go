package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWaitQueueFIFOWake(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	var order []int
	k.At(1, func() {
		for i := 0; i < 3; i++ {
			i := i
			q.Wait(func() { order = append(order, i) })
		}
	})
	k.At(2, func() {
		q.WakeOne(0)
		q.WakeOne(0)
		q.WakeOne(0)
	})
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestWaitQueueWakeOneEmpty(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	if q.WakeOne(0) {
		t.Fatal("WakeOne on empty queue returned true")
	}
}

func TestWaitQueueWakeNonReentrant(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	stage := 0
	k.At(1, func() {
		q.Wait(func() {
			if stage != 1 {
				t.Error("waiter ran reentrantly inside waker")
			}
		})
		q.WakeOne(0)
		stage = 1
	})
	k.Run()
}

func TestFIFOPushPopOrder(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 10; i++ {
		if abs := f.Push(i); abs != i {
			t.Fatalf("Push(%d) returned absolute index %d", i, abs)
		}
	}
	for i := 0; i < 10; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("Pop() = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	if _, ok := f.Peek(); ok {
		t.Fatal("Peek on empty queue returned ok")
	}
}

// TestFIFODrain: popping a queue empty hands back every element in
// order, rewinds its array, keeps nothing the popped elements pointed
// to, and later pushes continue the absolute numbering.
func TestFIFODrain(t *testing.T) {
	var f FIFO[*int]
	vals := []int{1, 2, 3}
	for i := range vals {
		f.Push(&vals[i])
	}
	for i := range vals {
		if p, ok := f.Pop(); !ok || p != &vals[i] {
			t.Fatalf("Pop %d = %v,%v", i, p, ok)
		}
	}
	if f.Len() != 0 || f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained queue: Len %d, head %d, len(buf) %d; want a rewound empty array", f.Len(), f.head, len(f.buf))
	}
	for _, p := range f.buf[:cap(f.buf)] {
		if p != nil {
			t.Fatal("a drained queue still references a popped element")
		}
	}
	if abs := f.Push(&vals[0]); abs != 3 {
		t.Fatalf("first push after the drain got index %d, want 3", abs)
	}
}

// Property: a FIFO behaves like a slice under any interleaving of push,
// pop, peek and at — including the interleavings that slide the live
// window down the array and rewind a drained one — and an absolute
// index resolves to its element for exactly as long as it is queued.
func TestPropertyFIFOMatchesSlice(t *testing.T) {
	f := func(ops []uint8, vals []int) bool {
		var q FIFO[int]
		var model []int
		popped := 0 // absolute index of model[0]
		vi := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push, twice as often as the others so backlogs build
				v := vi
				if vi < len(vals) {
					v = vals[vi]
				}
				vi++
				if abs := q.Push(v); abs != popped+len(model) {
					return false
				}
				model = append(model, v)
			case 2:
				got, ok := q.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
				popped++
			case 3:
				got, ok := q.Peek()
				if ok != (len(model) > 0) || ok && got != model[0] {
					return false
				}
			}
			// Every absolute index: popped ones answer nil, queued ones
			// their element, future ones nil.
			for abs := popped - 2; abs <= popped+len(model); abs++ {
				p := q.At(abs)
				if abs < popped || abs >= popped+len(model) {
					if p != nil {
						return false
					}
				} else if p == nil || *p != model[abs-popped] {
					return false
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOStandingBacklog walks a 100-element backlog through the array
// 1,000 times (the slide-down path) with the indices of the newest, the
// oldest and the just-popped element checked at every step, and the
// array must not grow beyond a small multiple of the backlog.
func TestFIFOStandingBacklog(t *testing.T) {
	var q FIFO[int]
	next, popped := 0, 0
	push := func() {
		if abs := q.Push(next * 10); abs != next {
			t.Fatalf("push %d returned absolute index %d", next, abs)
		}
		next++
	}
	pop := func() {
		if v, ok := q.Pop(); !ok || v != popped*10 {
			t.Fatalf("pop %d = %d,%v", popped, v, ok)
		}
		popped++
	}
	for i := 0; i < 100; i++ {
		push()
	}
	for i := 0; i < 1000; i++ {
		pop()
		push()
		if q.Len() != 100 {
			t.Fatalf("len = %d, want 100", q.Len())
		}
		if q.At(popped-1) != nil {
			t.Fatalf("At(%d) still answers after its pop", popped-1)
		}
		if p := q.At(next - 1); p == nil || *p != (next-1)*10 {
			t.Fatalf("At(%d) = %v", next-1, p)
		}
		if p := q.At(popped); p == nil || *p != popped*10 {
			t.Fatalf("At(%d) = %v", popped, p)
		}
	}
	if cap(q.buf) > 400 {
		t.Errorf("a 100-element backlog grew the array to %d", cap(q.buf))
	}
}

// TestFIFOFillAndDrainAllocatesNothing pins the allocation contract: once
// its array fits, a queue filled and drained over and over, its head
// peeked and its elements looked up by absolute index, allocates nothing.
func TestFIFOFillAndDrainAllocatesNothing(t *testing.T) {
	var q FIFO[int]
	cycle := func() {
		first := q.Push(0)
		for i := 1; i < 50; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			if p := q.At(first + 49); p == nil || *p != 49 {
				t.Fatalf("At(%d) = %v, want the last push", first+49, p)
			}
			if head, _ := q.Peek(); head != 50-q.Len() {
				t.Fatalf("Peek = %d with %d queued", head, q.Len())
			}
			q.Pop()
		}
	}
	cycle() // warm-up: the array grows once
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("fill-and-drain allocates %.1f times per cycle", n)
	}
}
