package netstore

// A connection's outbound queue: replies and watch events waiting to be
// written, with coalescing, lag, repair and eviction, and the one encoder
// of a queued run. On a ring connection the goroutine that queues a frame
// also writes it (flushLocked); on a socket the writer goroutine does.

import (
	"encoding/binary"
	"errors"

	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

type eventKey struct {
	watch uint32
	path  string
}

// srvWatch is one registered watch: the store's id for it and idx, the
// index of its own queued events — path to the frame's absolute queue
// index, which survives pops. Its callback captured the map. Guarded by
// qmu.
type srvWatch struct {
	id  store.WatchID
	idx map[string]int
}

// outFrame is one queued outbound frame. A reply is its encoded payload
// in a pooled buffer. An event is queued undecoded — its key plus the
// store's own value string, no copy — so coalescing replaces a string,
// and only the value that survives to the write is ever encoded. An
// event carries its watch's idx (nil marks a reply), so the pop deletes
// its entry whether or not the watch is still registered.
type outFrame struct {
	payload []byte
	idx     map[string]int
	key     eventKey
	value   string
}

// appendTo encodes the frame onto b behind its length prefix — the one
// place an event is encoded. A reply's payload stays with the queued
// frame until dropRun recycles it.
func (fr *outFrame) appendTo(b []byte) []byte {
	mark := len(b)
	e := enc{b: append(b, 0, 0, 0, 0)}
	if fr.idx != nil {
		e.op(OpEvent, 0)
		e.u32(fr.key.watch)
		e.str(fr.key.path)
		e.str(fr.value)
	} else {
		e.b = append(e.b, fr.payload...)
	}
	binary.BigEndian.PutUint32(e.b[mark:], uint32(len(e.b)-mark-4))
	return e.b
}

// encodeRun appends queued frames to b, oldest first, until the queue
// ends or b holds budget bytes, and reports how many it took. They stay
// queued — an event can still coalesce, a reply keeps its payload — until
// dropRun. The writer and flushLocked both encode with it; the caller
// holds qmu.
func (c *srvConn) encodeRun(b []byte, budget int) ([]byte, int) {
	n, base := 0, c.q.Base()
	for ; n < c.q.Len() && len(b) < budget; n++ {
		b = c.q.At(base + n).appendTo(b)
	}
	return b, n
}

// dropRun pops the n frames encodeRun took, once their bytes are written
// or copied into the writer's buffer. An event leaves its watch's index,
// which holds at most one frame per path (a second event coalesces into
// it), so the entry is this frame's; a reply's pooled payload is
// recycled. The caller holds qmu.
func (c *srvConn) dropRun(n int) {
	for ; n > 0; n-- {
		fr, _ := c.q.Pop()
		if fr.idx != nil {
			c.nEvents--
			delete(fr.idx, fr.key.path)
		} else {
			putBuf(fr.payload)
		}
	}
}

// flushLocked writes the whole queue into the ring in one put, on the
// goroutine that queued its last frame, and reports whether that left
// keys lagged behind an empty queue: the caller repairs them, since no
// writer wakes to. Nothing is written while the writer holds frames it
// has popped (wbusy): it comes back for the rest, so the queue stays the
// wire's order. A queue the ring has no room for, whole, is left to the
// writer, which is signalled: it waits for room under its write deadline
// and streams a frame larger than the ring. So under the store lock a
// flush is a bounded copy and at most one doorbell. The caller holds
// qmu; c.ring is set.
func (c *srvConn) flushLocked() (repair bool) {
	if c.wbusy || c.qclosed || c.q.Len() == 0 {
		return false
	}
	var n int
	c.fbuf, n = c.encodeRun(c.fbuf[:0], len(c.ring.out.data))
	ok := n == c.q.Len() && c.ring.putAll(c.fbuf)
	if cap(c.fbuf) > poolMax {
		c.fbuf = nil // one big run must not pin its size
	}
	if !ok {
		c.qcond.Signal()
		return false
	}
	c.dropRun(n)
	return len(c.lagged) > 0
}

// flush ends a hold of the store lock: each ring connection the hold
// queued events on writes its queue (flushLocked). One it leaves lagged
// is repaired here, which queues it again.
func (t *tree) flush() {
	for i := 0; i < len(t.flushq); i++ {
		c := t.flushq[i]
		c.flushing = false
		c.qmu.Lock()
		repair := c.flushLocked()
		c.qmu.Unlock()
		if repair {
			c.repair(t)
		}
	}
	clear(t.flushq)
	t.flushq = t.flushq[:0]
}

// lagFactor sizes the per-connection lagged-key backlog as a multiple of
// Options.NotifyQueue. Lagged keys carry no value, so the multiple
// buys a deep repair window for little memory; a connection that falls
// further behind than this is severed (docs/WIRE_PROTOCOL.md §4).
const lagFactor = 64

// enqueue appends a reply frame; replies are bounded by the peer's
// outstanding requests, so they bypass the notify-queue cap. On a ring
// the reader then writes it, behind whatever is queued ahead of it.
func (c *srvConn) enqueue(payload []byte) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		return
	}
	c.q.Push(outFrame{payload: payload})
	if c.ring == nil {
		c.qcond.Signal()
		c.qmu.Unlock()
		return
	}
	repair := c.flushLocked()
	c.qmu.Unlock()
	if repair {
		c.srv.do(c.repair)
	}
}

// enqueueEvent queues a watch event under the notify-queue bound, with
// delta fan-out: an event still queued for the same (watch, path) has its
// value replaced by the newer one instead of queuing a second frame, so a
// connection that falls behind receives the net change per path, not the
// history — watch semantics promise "something changed here", never
// every intermediate value. Nothing is encoded here: value is the
// store's own string and the write encodes whichever value is queued
// when it gets there. When the queue is full and nothing coalesces, the
// key alone is parked in lagged for repair; only a connection that
// exhausts that backlog too is evicted. It is called from watch delivery,
// with the tree the watch was registered on and the watch's own idx.
func (c *srvConn) enqueueEvent(t *tree, idx map[string]int, key eventKey, value string) {
	c.qmu.Lock()
	if c.qclosed {
		c.qmu.Unlock()
		return
	}
	if abs, queued := idx[key.path]; queued {
		c.q.At(abs).value = value // an index entry lives exactly as long as its frame
		c.qmu.Unlock()
		c.srv.coalesced.Add(1)
		return
	}
	if c.nEvents < c.srv.opts.NotifyQueue && len(c.lagged) == 0 {
		c.pushEventLocked(t, idx, key, value)
		c.qmu.Unlock()
		return
	}
	// No room for the value from here on: the key is what survives.
	if _, parked := c.lagIdx[key]; parked {
		c.qmu.Unlock()
		c.srv.coalesced.Add(1)
		return
	}
	if len(c.lagged) >= lagFactor*c.srv.opts.NotifyQueue {
		c.qmu.Unlock()
		c.evict(t, "notify backlog overflow")
		return
	}
	first := len(c.lagged) == 0
	c.lagged = append(c.lagged, key)
	c.lagIdx[key] = struct{}{}
	c.qmu.Unlock()
	c.srv.lagged.Add(1)
	if first {
		t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "lag", Path: key.path})
	}
}

// pushEventLocked appends an event frame and sees that it is written: on
// a ring by the lock holder as its hold ends (tree.flush), on a socket by
// the writer, signalled here. The caller holds qmu and has checked the
// bound.
func (c *srvConn) pushEventLocked(t *tree, idx map[string]int, key eventKey, value string) {
	idx[key.path] = c.q.Push(outFrame{idx: idx, key: key, value: value})
	c.nEvents++
	c.srv.events.Add(1)
	switch {
	case c.ring == nil:
		c.qcond.Signal()
	case !c.flushing:
		c.flushing = true
		t.flushq = append(t.flushq, c)
	}
}

// repair moves lagged keys into the room the last write made, oldest
// first, each with the value its path holds now. It holds the store
// lock (it has the tree), so no write can slip between the read and the
// enqueue, and events are only produced under that lock, so the room it
// measured cannot shrink underneath it.
func (c *srvConn) repair(t *tree) {
	c.qmu.Lock()
	n := min(len(c.lagged), c.srv.opts.NotifyQueue-c.nEvents)
	if c.qclosed || n <= 0 {
		c.qmu.Unlock()
		return
	}
	keys := c.lagged[:n:n]
	c.lagged = c.lagged[n:]
	for _, key := range keys {
		delete(c.lagIdx, key)
	}
	c.qmu.Unlock()
	evs := make([]outFrame, 0, len(keys))
	for _, key := range keys {
		w, live := c.watches[key.watch]
		if !live {
			continue
		}
		// As in-process live delivery: a removed path notifies with an
		// empty value, an unreadable one not at all.
		v, err := t.st.Read(c.dom, key.path)
		if err == nil || errors.Is(err, store.ErrNoEntry) {
			evs = append(evs, outFrame{idx: w.idx, key: key, value: v})
		}
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.qclosed {
		return
	}
	for _, ev := range evs {
		c.pushEventLocked(t, ev.idx, ev.key, ev.value)
	}
}

// evict severs a connection that cannot keep up and records why. It may
// run on the connection's own reader, when the operation it is running
// overflows its own backlog; shutdown waits for no goroutine, so that
// cannot deadlock.
func (c *srvConn) evict(t *tree, reason string) {
	if !c.dead.CompareAndSwap(false, true) {
		c.shutdown()
		return
	}
	c.shutdown()
	c.srv.evicted.Add(1)
	t.rec.Record(trace.Record{Kind: trace.KindWireConn, Dom: int(c.dom), Value: "evict", Path: reason})
}
