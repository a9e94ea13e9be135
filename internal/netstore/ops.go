package netstore

// What a frame does once it is read: the op table, the one executor for
// single frames and batch sub-ops, and each op's function.

import (
	"encoding/json"
	"fmt"

	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// handle is one frame on this, the connection's reader goroutine: the
// one request decoder, one hold of the store lock, the reply queued. A
// frame that does not decode is answered BAD_REQUEST and runs nothing; the
// connection stays up, so a bad request stays diagnosable.
func (c *srvConn) handle(op Op, id uint32, d *dec) {
	r, e := &c.req, &c.renc
	r.op = op
	c.subs = d.req(r, c.subs[:0])
	*e = enc{b: getBuf(64)}
	e.op(OpReply, id)
	if err := d.done(); err != nil {
		e.status(err)
	} else if !c.srv.do(c.serve) {
		e.status(ErrClosed) // a closed server ran nothing: e is still the bare header
	}
	out := e.b
	e.b = nil
	*r = req{}
	clear(c.subs) // the scratch must not pin the frame's values
	if cap(c.subs) > subsKeep {
		c.subs = nil
	}
	c.enqueue(out)
}

// subsKeep is the largest batch scratch either end of a connection keeps
// between frames — the server's decoded sub-ops, the client's op slice;
// a bigger batch's is dropped rather than pinned.
const subsKeep = 256

// serve runs the decoded frame (c.req; c.subs if it is a batch) under the
// store lock and appends its reply to c.renc. The two kinds of frame
// differ only in this wrapper: a single op is one wire.op record and its
// own hold of the lock; a batch is one wire.batch record and one hold
// for its N sub-ops (the hot path's amortization), answered in request
// order behind an OK prefix and a count. The record is built before the
// op runs, whatever its outcome, and only while a tail is attached.
func (c *srvConn) serve(t *tree) {
	r, subs, e := &c.req, c.subs, &c.renc
	if r.op != OpBatch {
		if t.tailed {
			t.rec.Record(trace.Record{Kind: trace.KindWireOp, Dom: int(c.dom), Path: r.path, Value: r.op.String()})
		}
		c.exec(t, r, e)
		return
	}
	if t.tailed {
		t.rec.Record(trace.Record{Kind: trace.KindWireBatch, Dom: int(c.dom), Value: "batch", Size: int64(len(subs))})
	}
	e.status(nil)
	e.u32(uint32(len(subs)))
	for i := range subs {
		c.exec(t, &subs[i], e)
	}
	c.srv.batches.Add(1)
	c.srv.batchOps.Add(uint64(len(subs)))
}

// exec executes one op — a frame's own or a batch's sub-op — and appends
// its reply: status, message and, on OK, the body run appended behind the
// OK prefix. A failure rewinds to the prefix: a failed op has no body.
func (c *srvConn) exec(t *tree, r *req, e *enc) {
	mark := len(e.b)
	e.status(nil)
	if err := ops[r.op].run(c, t, r, e); err != nil {
		e.b = e.b[:mark]
		e.status(err)
	}
}

// opDesc describes one opcode, once.
type opDesc struct {
	name   string
	layout string // the request body: one letter per field in wire order (see req)
	batch  bool   // stateless: may ride in an OpBatch frame as a sub-op
	// run executes the decoded request under the store lock as the
	// connection's domain and appends the reply body to e. Nil for what a
	// client may not send, and for OpBatch, which is served as its sub-ops.
	run func(c *srvConn, t *tree, r *req, e *enc) error
}

// ops is the protocol's one description of its opcodes, indexed by code:
// Op.String, both ends' request codecs (enc.req, dec.req) and exec read
// it, and docs/WIRE_PROTOCOL.md §3 is checked against it.
var ops = [...]opDesc{
	OpHandshake: {name: "handshake"},
	OpReply:     {name: "reply"},
	OpEvent:     {name: "event"},
	OpRead:      {"read", "p", true, (*srvConn).opRead},
	OpWrite:     {"write", "pv", true, (*srvConn).opWrite},
	OpRemove:    {"remove", "p", true, (*srvConn).opRemove},
	OpList:      {"list", "p", true, (*srvConn).opList},
	OpGrant:     {"grant", "pdm", true, (*srvConn).opGrant},
	OpWatch:     {"watch", "ip", false, (*srvConn).opWatch},
	OpUnwatch:   {"unwatch", "i", false, (*srvConn).opUnwatch},
	OpTxnBegin:  {"txn.begin", "", false, (*srvConn).opTxnBegin},
	OpTxnRead:   {"txn.read", "ip", false, inTxn(txnRead)},
	OpTxnWrite:  {"txn.write", "ipv", false, inTxn(txnWrite)},
	OpTxnRemove: {"txn.remove", "ip", false, inTxn(txnRemove)},
	OpTxnCommit: {"txn.commit", "i", false, inTxn(txnEnd)},
	OpTxnAbort:  {"txn.abort", "i", false, inTxn(txnEnd)},
	OpStats:     {"stats", "", false, (*srvConn).opStats},
	OpPing:      {"ping", "", true, (*srvConn).opPing},
	OpBatch:     {name: "batch", layout: "b"},
	OpSync:      {"sync", "psh", false, (*srvConn).opSync},
}

func (c *srvConn) opPing(*tree, *req, *enc) error { return nil }

func (c *srvConn) opRead(t *tree, r *req, e *enc) error {
	v, err := t.st.Read(c.dom, r.path)
	e.str(v)
	return err
}

func (c *srvConn) opWrite(t *tree, r *req, _ *enc) error {
	return t.st.Write(c.dom, r.path, r.value)
}

func (c *srvConn) opRemove(t *tree, r *req, _ *enc) error { return t.st.Remove(c.dom, r.path) }

func (c *srvConn) opList(t *tree, r *req, e *enc) error {
	names, err := t.st.Children(c.dom, r.path)
	e.strs(names) // the store's own index, encoded under its lock
	return err
}

func (c *srvConn) opGrant(t *tree, r *req, _ *enc) error {
	return t.st.Grant(c.dom, r.path, r.target, r.perm)
}

// opWatch registers a watch under the client's id for it (r.id): event
// frames carry that id, so the store's own never crosses the wire.
func (c *srvConn) opWatch(t *tree, r *req, _ *enc) error {
	cwid := r.id
	if _, dup := c.watches[cwid]; dup {
		return fmt.Errorf("%w: watch id %d in use", ErrBadRequest, cwid)
	}
	idx := map[string]int{}
	wid, err := t.st.Watch(c.dom, r.path, func(path, value string) {
		c.enqueueEvent(t, idx, eventKey{watch: cwid, path: path}, value)
	})
	if err == nil {
		c.watches[cwid] = srvWatch{id: wid, idx: idx}
	}
	return err
}

func (c *srvConn) opUnwatch(t *tree, r *req, _ *enc) error {
	if w, ok := c.watches[r.id]; ok {
		t.st.Unwatch(w.id)
		delete(c.watches, r.id)
	}
	return nil
}

func (c *srvConn) opTxnBegin(t *tree, _ *req, e *enc) error {
	if len(c.txns) >= c.srv.opts.MaxTxns {
		return fmt.Errorf("%w: %d transactions already open", ErrBadRequest, len(c.txns))
	}
	c.nextTxn++
	c.txns[c.nextTxn] = t.st.Begin(c.dom)
	e.u32(c.nextTxn)
	return nil
}

// inTxn makes a row's run out of an op on the open transaction r.id names.
func inTxn(op func(*srvConn, *store.Txn, *req, *enc) error) func(*srvConn, *tree, *req, *enc) error {
	return func(c *srvConn, _ *tree, r *req, e *enc) error {
		if txn, ok := c.txns[r.id]; ok {
			return op(c, txn, r, e)
		}
		return fmt.Errorf("%w: %d", ErrUnknownTxn, r.id)
	}
}

func txnRead(_ *srvConn, txn *store.Txn, r *req, e *enc) error {
	v, err := txn.Read(r.path)
	e.str(v)
	return err
}

func txnWrite(_ *srvConn, txn *store.Txn, r *req, _ *enc) error { return txn.Write(r.path, r.value) }

func txnRemove(_ *srvConn, txn *store.Txn, r *req, _ *enc) error { return txn.Remove(r.path) }

// txnEnd finishes a transaction either way: the id is gone afterwards.
func txnEnd(c *srvConn, txn *store.Txn, r *req, _ *enc) error {
	delete(c.txns, r.id)
	if r.op == OpTxnAbort {
		txn.Abort()
		return nil
	}
	return txn.Commit()
}

func (c *srvConn) opStats(t *tree, _ *req, e *enc) error {
	ctr := c.srv.wireCounters()
	ctr.addStore(t.st)
	blob, err := json.Marshal(ctr)
	e.str(string(blob))
	return err
}

// opSync answers a catch-up request for one domain subtree with
// store.SyncSubtree's verdict as the connection's domain sees it; the
// version/hash pair anchors the client's next sync (WIRE_PROTOCOL.md §6).
func (c *srvConn) opSync(t *tree, r *req, e *enc) error {
	page, err := t.st.SyncSubtree(c.dom, r.path, r.since, r.known)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.srv.syncs.Add(1)
	switch page.Mode {
	case store.SyncMatch:
		c.srv.syncMatches.Add(1)
	case store.SyncDelta:
		c.srv.syncDeltas.Add(1)
	default:
		c.srv.syncFulls.Add(1)
	}
	e.u8(uint8(page.Mode))
	e.u64(page.Version)
	e.u64(page.Hash)
	e.u32(uint32(len(page.Pairs)))
	for _, kv := range page.Pairs {
		e.str(kv.Path)
		e.bool(kv.Removed)
		e.str(kv.Value)
	}
	return nil
}
