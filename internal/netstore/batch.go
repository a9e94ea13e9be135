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
	ops []batchReq
}

type batchReq struct {
	op     Op
	path   string
	value  string
	target store.DomID
	perm   store.Perm
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
	// Present reports node existence (OpExists only).
	Present bool
}

// NewBatch starts an empty batch on this connection.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Read queues a read of an absolute path.
func (b *Batch) Read(path string) *Batch {
	b.ops = append(b.ops, batchReq{op: OpRead, path: path})
	return b
}

// Write queues a write of an absolute path.
func (b *Batch) Write(path, value string) *Batch {
	b.ops = append(b.ops, batchReq{op: OpWrite, path: path, value: value})
	return b
}

// Remove queues a subtree removal.
func (b *Batch) Remove(path string) *Batch {
	b.ops = append(b.ops, batchReq{op: OpRemove, path: path})
	return b
}

// List queues a child listing.
func (b *Batch) List(path string) *Batch {
	b.ops = append(b.ops, batchReq{op: OpList, path: path})
	return b
}

// Exists queues an existence probe.
func (b *Batch) Exists(path string) *Batch {
	b.ops = append(b.ops, batchReq{op: OpExists, path: path})
	return b
}

// Grant queues a permission grant.
func (b *Batch) Grant(path string, target store.DomID, perm store.Perm) *Batch {
	b.ops = append(b.ops, batchReq{op: OpGrant, path: path, target: target, perm: perm})
	return b
}

// Ping queues a no-op round-trip marker.
func (b *Batch) Ping() *Batch {
	b.ops = append(b.ops, batchReq{op: OpPing})
	return b
}

// encodeBatch appends an OpBatch request body: the count, then each
// sub-op. The server's decodeBatch is its inverse.
func encodeBatch(e *enc, ops []batchReq) {
	e.u32(uint32(len(ops)))
	for _, op := range ops {
		e.u8(uint8(op.op))
		switch op.op {
		case OpRead, OpRemove, OpList, OpExists:
			e.str(op.path)
		case OpWrite:
			e.str(op.path)
			e.str(op.value)
		case OpGrant:
			e.str(op.path)
			e.u32(uint32(op.target))
			e.u8(uint8(op.perm))
		case OpPing:
		default:
			// Unreachable: builders only queue the ops above.
		}
	}
}

// Run executes the batch and returns one result per queued operation,
// in order. The batch is reset afterwards and may be refilled.
func (b *Batch) Run() ([]BatchResult, error) {
	ops := b.ops
	b.ops = nil
	if len(ops) == 0 {
		return nil, nil
	}
	if len(ops) > MaxBatchOps {
		return nil, fmt.Errorf("%w: batch of %d ops exceeds MaxBatchOps", ErrBadRequest, len(ops))
	}
	d, err := b.c.call(OpBatch, func(e *enc) { encodeBatch(e, ops) })
	if err != nil {
		return nil, err
	}
	n := d.u32()
	if d.err == nil && int(n) != len(ops) {
		return nil, fmt.Errorf("%w: batch reply carries %d results for %d ops", ErrBadRequest, n, len(ops))
	}
	results := make([]BatchResult, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		st := Status(d.u8())
		msg := d.str()
		res := BatchResult{Err: errOf(st, msg)}
		if res.Err == nil {
			switch ops[i].op {
			case OpRead:
				res.Value = d.str()
			case OpList:
				m := d.u32()
				res.Names = make([]string, 0, m)
				for j := uint32(0); j < m; j++ {
					res.Names = append(res.Names, d.str())
				}
			case OpExists:
				res.Present = d.u8() == 1
			}
		}
		results = append(results, res)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return results, nil
}
