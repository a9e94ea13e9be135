package netstore

import (
	"fmt"

	"iorchestra/internal/store"
)

// Batch accumulates store operations and runs them in a single round
// trip (the OpBatch frame). The server executes the sub-ops under one
// hold of its store lock, so a 32-op batch costs one syscall pair and
// one lock acquisition where unbatched calls cost 32 of each; this is
// where the hot-path throughput comes from.
//
// A Batch is not safe for concurrent use; build it, Run it, read the
// results. Failures are per-operation: Run only returns an error for
// transport or framing problems.
type Batch struct {
	c   *Client
	ops []req
}

// BatchResult is the outcome of one batched operation, in request order.
type BatchResult struct {
	// Err is the operation's error, reconstructed with the same taxonomy
	// as the unbatched call (errors.Is against store.ErrNoEntry etc.).
	Err error
	// Value is the read result (OpRead only).
	Value string
	// Names are the listed children (OpList only).
	Names []string
}

// NewBatch starts an empty batch on this connection.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// add queues one operation, on the op slice the connection's last
// finished batch left behind when there is one (see Run).
func (b *Batch) add(r req) *Batch {
	if b.ops == nil {
		b.c.reqMu.Lock()
		b.ops, b.c.freeOps = b.c.freeOps, nil
		b.c.reqMu.Unlock()
	}
	b.ops = append(b.ops, r)
	return b
}

// Read queues a read of an absolute path.
func (b *Batch) Read(path string) *Batch { return b.add(req{op: OpRead, path: path}) }

// Write queues a write of an absolute path.
func (b *Batch) Write(path, value string) *Batch {
	return b.add(req{op: OpWrite, path: path, value: value})
}

// Remove queues a subtree removal.
func (b *Batch) Remove(path string) *Batch { return b.add(req{op: OpRemove, path: path}) }

// List queues a child listing.
func (b *Batch) List(path string) *Batch { return b.add(req{op: OpList, path: path}) }

// Grant queues a permission grant.
func (b *Batch) Grant(path string, target store.DomID, perm store.Perm) *Batch {
	return b.add(req{op: OpGrant, path: path, target: target, perm: perm})
}

// Ping queues a no-op round-trip marker.
func (b *Batch) Ping() *Batch { return b.add(req{op: OpPing}) }

// Run executes the batch and returns one result per queued operation,
// in order. The batch is reset afterwards and may be refilled.
func (b *Batch) Run() ([]BatchResult, error) {
	ops := b.ops
	b.ops = nil
	if len(ops) == 0 {
		return nil, nil
	}
	if len(ops) > MaxBatchOps {
		return nil, errBatchSize(uint32(len(ops)))
	}
	d, err := b.c.call(&req{op: OpBatch}, ops)
	if err != nil {
		return nil, err
	}
	n := d.u32()
	if d.err == nil && int(n) != len(ops) {
		return nil, fmt.Errorf("%w: batch reply carries %d results for %d ops", ErrBadRequest, n, len(ops))
	}
	results := make([]BatchResult, len(ops))
	d.results(ops, results)
	if err := d.done(); err != nil {
		return nil, err
	}
	if cap(ops) <= subsKeep {
		clear(ops) // the kept slice must not pin this batch's paths and values
		b.c.reqMu.Lock()
		b.c.freeOps = ops[:0]
		b.c.reqMu.Unlock()
	}
	return results, nil
}

// results decodes a batch reply's sub-replies into res, in place. Every
// List result's Names are carved out of one array, sized at the first
// list: its count times the lists still to come, and never more names
// than the rest of the body could hold. A list that does not fit what is
// left of the array starts the next one, by the same rule.
func (d *rdec) results(ops []req, res []BatchResult) {
	var names []string
	for i := 0; i < len(ops) && d.err == nil; i++ {
		if st, msg := Status(d.u8()), d.str(); st != StatusOK {
			res[i].Err = errOf(st, msg)
			continue
		}
		switch ops[i].op {
		case OpRead:
			res[i].Value = d.str()
		case OpList:
			m := d.count(4)
			if names == nil || cap(names)-len(names) < m {
				lists := 0
				for _, op := range ops[i:] {
					if op.op == OpList {
						lists++
					}
				}
				names = make([]string, 0, min(m*lists, len(d.s)/4))
			}
			start := len(names)
			for j := 0; j < m && d.err == nil; j++ {
				names = append(names, d.str())
			}
			res[i].Names = names[start:len(names):len(names)]
		}
	}
}
