// Package netstore puts the IOrchestra system store on the wire: a
// binary, length-prefixed request/reply protocol (over TCP or Unix
// sockets) exposing the full store.Store surface — reads, writes,
// permission grants, optimistic transactions and *streaming* watch
// notifications — so guests, tools and load generators can run
// out-of-process and off-host while Dom0 keeps the authoritative tree.
//
// The paper's collaboration channel is XenStore crossed between
// protection domains; netstore is that boundary made explicit. A
// per-connection handshake binds the socket to a store.DomID, and the
// server evaluates every operation with the existing permission model
// (internal/store), so a guest on the wire can do exactly what a guest
// in-process can do and nothing more.
//
// # One protocol, one store lock
//
// There is one protocol version (ProtocolVersion); the handshake refuses
// any other. Every request opcode is described once, in the op table
// (ops): name, request-body layout, batchable or not, executor — both
// ends encode, decode and run from that row, so a frame's own op and a
// batch's sub-op are the same op by construction. Besides the per-op
// frames, OpBatch carries up to MaxBatchOps sub-ops and their replies in
// one round trip.
// The server keeps the store behind one lock: a connection's reader
// goroutine runs each request it decodes to completion under it — the
// store operation, then the watch deliveries it caused, each queued on
// its connection — and a batch frame is one hold of the lock. The order
// in which operations take the lock is the total order of mutations;
// nothing that can block on a peer runs under it. What the lock guards is
// one value (tree) that only Server.do hands out, so code that touches
// the store takes a *tree and cannot be reached without the lock.
//
// # Watch fan-out: delta queues, coalescing, eviction
//
// Each connection owns a bounded outbound event queue (Options.
// NotifyQueue) holding the *net change per path*, not history: when an
// event for a (watch, path) pair is already queued, the new value
// replaces it in place (Counters.Coalesced) instead of consuming a
// slot. A queued event is its key plus the store's own value string,
// not a frame: the connection's writer encodes whatever value is queued
// when it flushes, so a replaced value is never encoded. Consequently
// the queue grows only with the client's
// distinct-path backlog. When that backlog overflows the queue, the
// event's value is dropped and its key parked; once the connection's
// writer has drained room the server re-reads each parked path and
// queues its current value, so overflow delays a watcher but never
// costs it a final value. A connection is severed only on write-stall
// evidence (its socket accepted no frame within Options.WriteTimeout) or
// when even the payload-free key backlog (64 × NotifyQueue) is
// exhausted. The invariants: an evicted client learns of it because its
// calls fail, the eviction is counted (Counters.Evicted) and traced
// (wire.conn evict), and the client recovers by reading again; a
// connected client observes, for every path it can read, the latest
// value and a value no older than any later-queued path's (queue order
// is first-enqueue order); and one stalled guest can never wedge fan-out
// for everyone else, because enqueueing never blocks on a slow socket.
// Writes out of a connection are flushed with syscall coalescing: the
// frames queued at a writeLoop wakeup go out in one write, from a buffer
// the loop keeps.
//
// docs/WIRE_PROTOCOL.md is the normative frame-layout and semantics
// reference; docs/PERFORMANCE.md tracks the measured cost of all of
// the above. Unlike every simulation package, netstore deals in real
// sockets and real deadlines; it is one of the wall-clock bridges the
// determinism rule does not hold in (docs/LINTING.md).
package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"iorchestra/internal/store"
)

// Protocol constants. A frame is a uint32 big-endian payload length
// followed by the payload; the payload starts with a one-byte opcode and
// a uint32 request id (0 for server-initiated event frames).
const (
	// Magic opens every handshake request ("IORS").
	Magic uint32 = 0x494F5253
	// ProtocolVersion is the one protocol this package speaks; the
	// handshake refuses a hello carrying any other version byte
	// (docs/WIRE_PROTOCOL.md §2).
	ProtocolVersion uint8 = 2
	// MaxFrame bounds any single frame; larger frames poison the
	// connection.
	MaxFrame = 16 << 20
	// MaxPath bounds a store path on the wire.
	MaxPath = 4 << 10
	// MaxValue bounds a store value on the wire.
	MaxValue = 256 << 10
	// MaxBatchOps bounds the sub-ops a single OpBatch frame may carry.
	MaxBatchOps = 4096
)

// Op is a wire opcode.
type Op uint8

// Opcodes. OpReply and OpEvent flow server→client; everything else is a
// client request, described by its row of the op table (ops). Codes 9,
// 18 and 22 are reserved — they named three ops no caller used — and are
// refused like any unknown opcode; a new op takes a fresh number.
const (
	OpHandshake Op = 1
	OpReply     Op = 2
	OpEvent     Op = 3

	OpRead   Op = 4
	OpWrite  Op = 5
	OpRemove Op = 6
	OpList   Op = 7
	OpGrant  Op = 8

	OpWatch   Op = 10
	OpUnwatch Op = 11

	OpTxnBegin  Op = 12
	OpTxnRead   Op = 13
	OpTxnWrite  Op = 14
	OpTxnRemove Op = 15
	OpTxnCommit Op = 16
	OpTxnAbort  Op = 17

	OpStats Op = 19
	OpPing  Op = 20

	OpBatch Op = 21
)

// String names the opcode for traces and diagnostics.
func (o Op) String() string {
	if int(o) < len(ops) && ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the result code carried in every reply.
type Status uint8

// Statuses map one-to-one onto the store's error taxonomy plus the
// wire-only failure modes.
const (
	StatusOK         Status = 0
	StatusNoEntry    Status = 1
	StatusPermission Status = 2
	StatusConflict   Status = 3
	StatusBadPath    Status = 4
	StatusBadRequest Status = 5
	StatusUnknownTxn Status = 6
	StatusAuth       Status = 7
	StatusInternal   Status = 8
)

// Wire-only errors surfaced to clients.
var (
	// ErrAuth is returned when the handshake token is rejected.
	ErrAuth = errors.New("netstore: authentication failed")
	// ErrBadRequest is returned for malformed or oversized requests.
	ErrBadRequest = errors.New("netstore: bad request")
	// ErrUnknownTxn is returned for operations on an unknown (or already
	// finished) transaction id.
	ErrUnknownTxn = errors.New("netstore: unknown transaction")
	// ErrClosed is returned by client operations after the connection is
	// gone.
	ErrClosed = errors.New("netstore: connection closed")
	// ErrTimeout is returned when a request exceeds the client's timeout.
	ErrTimeout = errors.New("netstore: request timed out")
)

// statusErrs is the status taxonomy, once: the sentinel each failure
// status stands for. statusOf and errOf are its two readings, so an error
// crosses the wire and errors.Is still finds it. StatusInternal has no
// sentinel: it is what every other error becomes.
var statusErrs = [...]error{
	StatusNoEntry:    store.ErrNoEntry,
	StatusPermission: store.ErrPermission,
	StatusConflict:   store.ErrConflict,
	StatusBadPath:    store.ErrBadPath,
	StatusBadRequest: ErrBadRequest,
	StatusUnknownTxn: ErrUnknownTxn,
	StatusAuth:       ErrAuth,
}

// statusOf maps a store (or wire) error to its wire status.
func statusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	for st, base := range statusErrs {
		if base != nil && errors.Is(err, base) {
			return Status(st)
		}
	}
	return StatusInternal
}

// errOf reconstructs a client-side error from a reply status; msg carries
// the server's rendering for diagnostics.
func errOf(st Status, msg string) error {
	switch {
	case st == StatusOK:
		return nil
	case int(st) >= len(statusErrs) || statusErrs[st] == nil:
		return fmt.Errorf("netstore: server error: %s", msg)
	case msg == "":
		return statusErrs[st]
	}
	return fmt.Errorf("%w: %s", statusErrs[st], msg)
}

// bufPool recycles frame and payload scratch buffers across requests.
// Oversized buffers (large sync pages) are dropped on return rather than
// pinned in the pool. A sync.Pool holds pointers, so each pooled slice
// rides in a *[]byte box; boxPool recycles the emptied boxes, or every
// putBuf would allocate one.
var (
	bufPool sync.Pool
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

const poolMax = 64 << 10

// Cold error constructors for the per-frame codecs below: fmt
// formatting reflects and allocates, so the bound checks pay for their
// (rare) errors out of line.
func errFrameSize(n int) error {
	return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrBadRequest, n)
}

func errPathSize(n int) error {
	return fmt.Errorf("%w: path of %d bytes exceeds MaxPath", ErrBadRequest, n)
}

func errValueSize(n int) error {
	return fmt.Errorf("%w: value of %d bytes exceeds MaxValue", ErrBadRequest, n)
}

func errTruncated() error { return fmt.Errorf("%w: truncated frame", ErrBadRequest) }

// getBuf returns a zero-length pooled buffer with capacity ≥ n.
func getBuf(n int) []byte {
	if bp, _ := bufPool.Get().(*[]byte); bp != nil {
		if b := *bp; cap(b) >= n {
			*bp = nil
			boxPool.Put(bp)
			return b
		}
		bufPool.Put(bp)
	}
	return make([]byte, 0, max(n, 512))
}

// putBuf returns a buffer obtained from getBuf (or any payload the
// caller has finished with) to the pool.
func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > poolMax {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}

// writeFrame sends one length-prefixed payload. Header and payload are
// combined into one pooled buffer so each frame costs a single Write —
// on the hot path that halves the syscalls per round trip.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return errFrameSize(len(payload))
	}
	buf := getBuf(4 + len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	putBuf(buf)
	return err
}

// frameReader parses one connection's inbound frames where they land: it
// reads the socket straight into the buffer it owns and hands each
// payload out as a slice of it. It serves the whole stream, hello
// included, so what a peer pipelines behind a frame is never stranded.
// The buffer grows to the largest frame it meets, and one over poolMax is
// given up once its frame has been consumed. One goroutine at a time.
type frameReader struct {
	r          io.Reader
	buf        []byte // len == cap; buf[head:tail] is read and not yet handed out
	head, tail int
}

// frameBufMin is the buffer a connection starts with: one read syscall
// takes a burst of small frames (a reply behind its request's events).
const frameBufMin = 16 << 10

// next returns the next frame's payload: a slice of the reader's buffer,
// valid until the following call — callers finish decoding (dec copies
// string bytes out) before reading again. A length over MaxFrame is
// refused before anything is allocated for it.
func (fr *frameReader) next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.head:]))
	if n > MaxFrame {
		return nil, errFrameSize(n)
	}
	if err := fr.fill(4 + n); err != nil {
		return nil, err
	}
	payload := fr.buf[fr.head+4 : fr.head+4+n : fr.head+4+n]
	fr.head += 4 + n
	return payload, nil
}

// whole reports whether a whole frame is buffered: whether next would
// return without reading.
func (fr *frameReader) whole() bool {
	n := fr.tail - fr.head
	return n >= 4 && n-4 >= int(binary.BigEndian.Uint32(fr.buf[fr.head:]))
}

// fill reads until need bytes are buffered. A frame that straddles the
// end of the buffer is first moved to the front of it, or of one that
// fits — at most once per frame, and never for a peer with one request
// in flight: an emptied buffer refills from its start.
func (fr *frameReader) fill(need int) error {
	if fr.tail-fr.head >= need {
		return nil
	}
	if fr.head > 0 || need > len(fr.buf) {
		buf := fr.buf
		if need > len(buf) || len(buf) > poolMax {
			buf = make([]byte, max(need, frameBufMin))
		}
		fr.tail = copy(buf, fr.buf[fr.head:fr.tail])
		fr.head, fr.buf = 0, buf
	}
	for fr.tail < need {
		n, err := fr.r.Read(fr.buf[fr.tail:])
		if fr.tail += n; n == 0 && err != nil {
			return err
		}
	}
	return nil
}

// enc builds a payload. The zero value is ready to use.
type enc struct{ b []byte }

func (e *enc) op(o Op, id uint32) *enc {
	e.b = append(e.b, byte(o))
	e.u32(id)
	return e
}

func (e *enc) u8(v uint8) *enc { e.b = append(e.b, v); return e }

func (e *enc) u32(v uint32) *enc {
	e.b = binary.BigEndian.AppendUint32(e.b, v)
	return e
}

func (e *enc) u64(v uint64) *enc {
	e.b = binary.BigEndian.AppendUint64(e.b, v)
	return e
}

func (e *enc) str(s string) *enc {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
	return e
}

// strs appends a counted list of strings (a List reply's names).
func (e *enc) strs(ss []string) *enc {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
	return e
}

// status appends a reply's (or a batch sub-reply's) prefix: err's wire
// status and, for a failure, its message.
func (e *enc) status(err error) *enc {
	e.u8(uint8(statusOf(err)))
	if err != nil {
		return e.str(err.Error())
	}
	return e.str("")
}

// pathTable interns the paths one connection keeps naming. The control
// channel revisits a handful of keys per guest (nr_dirty, flush_now, the
// heartbeat, ...), so decoding each occurrence into a fresh string is
// most of what a small frame allocates; the table hands back the string
// it already holds instead. It belongs to the connection's one reader
// goroutine. At pathTableMax entries it is emptied rather than evicted
// from — a connection sweeping a large tree just stops benefiting — and
// paths over pathInternMax bytes are not worth pinning.
type pathTable map[string]string

const (
	pathTableMax  = 1024
	pathInternMax = 256
)

func (t pathTable) intern(raw []byte) string {
	if t == nil || len(raw) > pathInternMax {
		return string(raw)
	}
	if s, ok := t[string(raw)]; ok { // the conversion in a map index does not allocate
		return s
	}
	if len(t) >= pathTableMax {
		clear(t)
	}
	s := string(raw)
	t[s] = s
	return s
}

// dec consumes a payload; the first decode error sticks and zero values
// flow from then on, so call sites check err once at the end. paths,
// when set, interns what path decodes.
type dec struct {
	b     []byte
	err   error
	paths pathTable
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated()
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// raw consumes one length-prefixed byte string, aliasing the payload.
func (d *dec) raw() []byte {
	n := d.u32()
	if d.err != nil || uint32(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string { return string(d.raw()) }

// path decodes a string, applies the wire path bound and interns the
// result in d.paths.
func (d *dec) path() string {
	raw := d.raw()
	if d.err == nil && len(raw) > MaxPath {
		d.err = errPathSize(len(raw))
	}
	return d.paths.intern(raw)
}

// value decodes a string and applies the wire value bound.
func (d *dec) value() string {
	s := d.str()
	if d.err == nil && len(s) > MaxValue {
		d.err = errValueSize(len(s))
	}
	return s
}

// done errors unless the payload was fully consumed.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadRequest, len(d.b))
	}
	return nil
}

// req is one request as either end holds it: the opcode and every field
// any opcode's body carries. Which of them an opcode uses, in what wire
// order, is its row's layout in the op table: one letter per field, read
// by enc.req and dec.req and nothing else. 'b', OpBatch's sub-ops (u32 n,
// then n × (u8 opcode, that opcode's body)), is a []req beside it: held
// inside, every sub-op would carry an empty one.
type req struct {
	op     Op
	perm   store.Perm  // 'm': u8, at most store.PermWrite
	id     uint32      // 'i': u32, a watch id or a transaction id
	target store.DomID // 'd': u32
	path   string      // 'p': str, at most MaxPath, interned by the server
	value  string      // 'v': str, at most MaxValue
}

// req appends r's body: the fields its opcode's layout names, subs being
// OpBatch's. A sub-op's body is appended by the same loop, one level down.
func (e *enc) req(r *req, subs []req) *enc {
	layout := ops[r.op].layout
	for i := 0; i < len(layout); i++ {
		switch layout[i] {
		case 'i':
			e.u32(r.id)
		case 'p':
			e.str(r.path)
		case 'v':
			e.str(r.value)
		case 'd':
			e.u32(uint32(r.target))
		case 'm':
			e.u8(uint8(r.perm))
		case 'b':
			e.u32(uint32(len(subs)))
			for j := range subs {
				e.u8(uint8(subs[j].op)).req(&subs[j], nil)
			}
		}
	}
	return e
}

// Cold error constructors for dec.req, as for the frame codecs above.
func errOpcode(o Op, why string) error {
	return fmt.Errorf("%w: opcode %d%s", ErrBadRequest, uint8(o), why)
}

func errBatchSize(n uint32) error {
	return fmt.Errorf("%w: batch of %d ops exceeds MaxBatchOps", ErrBadRequest, n)
}

func errPerm(p store.Perm) error {
	return fmt.Errorf("%w: permission %d is none of none, read and write", ErrBadRequest, uint8(p))
}

// req decodes the body of r.op into r — enc.req's inverse and the one
// place a peer's request is believed: an opcode no client may send, a
// field past its bound, a permission the store does not define, a batch
// over MaxBatchOps or with an un-batchable sub-op fails the decode, so
// its frame executes nothing. A batch's sub-ops are appended to subs
// (the caller's scratch) and returned.
func (d *dec) req(r *req, subs []req) []req {
	if int(r.op) >= len(ops) || ops[r.op].run == nil && r.op != OpBatch {
		d.err = errOpcode(r.op, "")
		return subs
	}
	layout := ops[r.op].layout
	for i := 0; i < len(layout) && d.err == nil; i++ {
		switch layout[i] {
		case 'i':
			r.id = d.u32()
		case 'p':
			r.path = d.path()
		case 'v':
			r.value = d.value()
		case 'd':
			r.target = store.DomID(d.u32())
		case 'm':
			if r.perm = store.Perm(d.u8()); r.perm > store.PermWrite {
				d.err = errPerm(r.perm)
			}
		case 'b':
			n := d.u32()
			if n > MaxBatchOps {
				d.err = errBatchSize(n)
			}
			for ; n > 0 && d.err == nil; n-- {
				op := Op(d.u8())
				if d.err != nil {
					break
				}
				if int(op) >= len(ops) || !ops[op].batch {
					d.err = errOpcode(op, " not batchable")
					break
				}
				subs = append(subs, req{op: op})
				d.req(&subs[len(subs)-1], nil)
			}
		}
	}
	return subs
}

// rdec consumes a reply body on the client. The body is a string — the
// one allocation readFrames makes per reply, immutable from then on — and
// every string rdec returns is a view of it, so a 32-name List or a
// 96-result batch costs that one allocation, not one per field. The
// price is retention: a kept field keeps its whole reply alive (see
// Client). Requests and events are decoded by dec, which copies: they
// are read out of a frame buffer the next read overwrites.
//
// Each field is one bounds check against what remains — a string's
// 4 + n bytes together — and only a read that fails takes the slow path,
// take. A failed decode keeps its first error and no bytes, so every
// later read fails there too.
type rdec struct {
	s   string
	err error
}

// take consumes the next n bytes, or fails the decode and returns "".
func (d *rdec) take(n uint32) string {
	if uint64(len(d.s)) < uint64(n) {
		if d.err == nil {
			d.err = errTruncated()
		}
		d.s = ""
		return ""
	}
	v := d.s[:n]
	d.s = d.s[n:]
	return v
}

func (d *rdec) u8() uint8 {
	if len(d.s) < 1 {
		d.take(1)
		return 0
	}
	v := d.s[0]
	d.s = d.s[1:]
	return v
}

func (d *rdec) u32() uint32 {
	if len(d.s) < 4 {
		d.take(4)
		return 0
	}
	v := uint32(d.s[0])<<24 | uint32(d.s[1])<<16 | uint32(d.s[2])<<8 | uint32(d.s[3])
	d.s = d.s[4:]
	return v
}

func (d *rdec) str() string {
	if len(d.s) >= 4 {
		n := uint32(d.s[0])<<24 | uint32(d.s[1])<<16 | uint32(d.s[2])<<8 | uint32(d.s[3])
		if rest := d.s[4:]; uint64(n) <= uint64(len(rest)) {
			d.s = rest[n:]
			return rest[:n]
		}
	}
	return d.take(d.u32())
}

// count reads an element count, which sizes allocations and loops, and
// fails the decode unless the rest of the body could hold that many
// elements of at least min bytes each.
func (d *rdec) count(min int) int {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.s)/min) {
		d.err, d.s = errTruncated(), ""
		return 0
	}
	return int(n)
}

// names decodes a counted list of strings: a List reply's body.
func (d *rdec) names() []string {
	n := d.count(4) // a name costs its length prefix at least
	names := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		names = append(names, d.str())
	}
	return names
}

// done errors unless the body was fully consumed.
func (d *rdec) done() error {
	if d.err == nil && len(d.s) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadRequest, len(d.s))
	}
	return d.err
}
