package netstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// The fuzz targets seed themselves with f.Add, so a plain `go test` runs
// every seed as a unit test; `make fuzz` mutates from there.

// batchFrame is an OpBatch body as the client's Batch encodes it: the
// hot path's 6:1:1 write/read/list rotation, one round of it.
func batchFrame() []byte {
	base := store.DomainPath(3)
	b := (&Client{}).NewBatch()
	for i := 0; i < 6; i++ {
		b.Write(fmt.Sprintf("%s/k%d", base, i), "v")
	}
	b.Read(base + "/k0").List(base)
	return (&enc{}).req(&req{op: OpBatch}, b.ops).b
}

// decodeRequest runs the server's one request decoder over a frame's
// body, as srvConn.handle does.
func decodeRequest(op Op, body []byte) (req, []req, error) {
	d := &dec{b: body, paths: pathTable{}}
	r := req{op: op}
	subs := d.req(&r, nil)
	return r, subs, d.done()
}

// FuzzDecodeBatch feeds an arbitrary opcode and body to the one request
// decoder, which serves single frames and batch sub-ops alike and is the
// one place a peer's count sizes a loop. It must never panic, never hand
// back more than MaxBatchOps sub-ops, and accept only a request opcode
// whose every field is inside the wire's bounds and whose every sub-op is
// batchable; and what it accepts is canonical: encoding the decoded
// request gives the body back, byte for byte. The seeds are the batch
// frame cut at every length and, from a loop over the op table, each
// opcode's own request whole, cut short and overlong — a new row of the
// table is seeded by being there.
func FuzzDecodeBatch(f *testing.F) {
	valid := batchFrame()
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(uint8(OpBatch), valid[:cut])
	}
	f.Add(uint8(OpBatch), binary.BigEndian.AppendUint32(nil, 1<<32-1))
	unbatchable := append([]byte(nil), valid...)
	unbatchable[4+1+4+len(store.DomainPath(3)+"/k0")+4+1] = byte(OpWatch) // the second sub-op's opcode
	if _, _, err := decodeRequest(OpBatch, unbatchable); err == nil || !strings.Contains(err.Error(), "not batchable") {
		f.Fatalf("the un-batchable seed decodes with %v", err)
	}
	f.Add(uint8(OpBatch), unbatchable)
	sample := req{id: 7, path: store.DomainPath(3) + "/k", value: "v", target: 5, perm: store.PermRead, since: 1, known: 2}
	var subs []req
	for code, desc := range ops {
		if desc.batch {
			sub := sample
			sub.op = Op(code)
			subs = append(subs, sub)
		}
	}
	for code := range ops {
		r := sample
		r.op = Op(code)
		body := (&enc{}).req(&r, subs).b
		f.Add(uint8(code), body)
		f.Add(uint8(code), append(body[:len(body):len(body)], 0))
		if len(body) > 0 {
			f.Add(uint8(code), body[:len(body)-1])
		}
	}
	f.Add(uint8(len(ops)), []byte{})

	f.Fuzz(func(t *testing.T, code uint8, body []byte) {
		r, subs, err := decodeRequest(Op(code), body)
		if len(subs) > MaxBatchOps {
			t.Fatalf("%d sub-ops decoded, MaxBatchOps is %d", len(subs), MaxBatchOps)
		}
		if err != nil {
			return
		}
		if code <= uint8(OpEvent) || code == 9 || code == 18 || int(code) >= len(ops) {
			t.Fatalf("opcode %d accepted: no client may send it", code)
		}
		if r.op == OpBatch {
			if n := binary.BigEndian.Uint32(body); int(n) != len(subs) {
				t.Fatalf("frame announces %d sub-ops, %d decoded without error", n, len(subs))
			}
		} else if len(subs) > 0 {
			t.Fatalf("%v decoded %d sub-ops", r.op, len(subs))
		}
		for i, so := range append(subs[:len(subs):len(subs)], r) {
			switch so.op {
			case OpPing, OpRead, OpWrite, OpRemove, OpList, OpGrant:
			default:
				if i < len(subs) {
					t.Fatalf("sub-op %d: %v accepted, not batchable", i, so.op)
				}
			}
			if len(so.path) > MaxPath || len(so.value) > MaxValue || so.perm > store.PermWrite {
				t.Fatalf("op %d (%v): path of %d bytes, value of %d, perm %d accepted", i, so.op, len(so.path), len(so.value), so.perm)
			}
		}
		if again := (&enc{}).req(&r, subs).b; !bytes.Equal(again, body) {
			t.Fatalf("%v: decoded %x, which encodes as %x", r.op, body, again)
		}
	})
}

// FuzzReplyDecode drives rdec — the client's zero-copy reply decoder —
// through a fuzz-chosen sequence of reads over an arbitrary body and
// checks every result against a reference that indexes the body
// directly: same integers, every string the exact slice of the input it
// should be, the first short read sticky, and done() accepting only a
// body consumed to its last byte.
func FuzzReplyDecode(f *testing.F) {
	reply := replyTo(7, nil)
	reply.str("value").strs([]string{"a", "bc"}).u64(1 << 40)
	body := string(reply.b[replyHdr:])
	f.Add(body, []byte{0, 3, 3, 1, 3, 3, 2}) // status, msg, value, count, two names, version
	f.Add(body, []byte{0, 3, 3})             // trailing bytes
	f.Add(body[:len(body)-3], []byte{0, 3, 3, 1, 3, 3, 2})
	f.Add("\xff\xff\xff\xffab", []byte{3, 0}) // a length prefix far past the body
	f.Add("", []byte{})

	f.Fuzz(func(t *testing.T, body string, script []byte) {
		d := rdec{s: body}
		pos, failed := 0, false
		// need is the reference reader: it advances over the next n bytes
		// and reports their offset, or fails for good.
		need := func(n uint64) (int, bool) {
			if failed || uint64(len(body)-pos) < n {
				failed = true
				return 0, false
			}
			at := pos
			pos += int(n)
			return at, true
		}
		for step, b := range script {
			switch b % 4 {
			case 0:
				var want uint8
				if at, ok := need(1); ok {
					want = body[at]
				}
				if got := d.u8(); got != want {
					t.Fatalf("step %d: u8 = %d, want %d", step, got, want)
				}
			case 1:
				var want uint32
				if at, ok := need(4); ok {
					want = binary.BigEndian.Uint32([]byte(body[at:pos]))
				}
				if got := d.u32(); got != want {
					t.Fatalf("step %d: u32 = %d, want %d", step, got, want)
				}
			case 2:
				got := d.u64()
				// Two words, as the wire writes it: a body that holds only
				// the first still fails the read.
				if at, ok := need(8); ok {
					if want := binary.BigEndian.Uint64([]byte(body[at:pos])); got != want {
						t.Fatalf("step %d: u64 = %d, want %d", step, got, want)
					}
				}
			case 3:
				want := ""
				if at, ok := need(4); ok {
					if at, ok = need(uint64(binary.BigEndian.Uint32([]byte(body[at:pos])))); ok {
						want = body[at:pos]
					}
				}
				if got := d.str(); got != want {
					t.Fatalf("step %d: str = %q, want %q", step, got, want)
				}
			}
		}
		err := d.done()
		if exact := !failed && pos == len(body); (err == nil) != exact {
			t.Fatalf("done() = %v with the body consumed exactly: %v (reference at %d of %d, failed %v)",
				err, exact, pos, len(body), failed)
		}
	})
}

// fuzzFrames cuts a fuzz input into frame payloads: a big-endian u16
// length, then that many bytes (or what is left of the input).
func fuzzFrames(data []byte) (payloads [][]byte) {
	for len(data) >= 2 {
		n := min(int(binary.BigEndian.Uint16(data)), len(data)-2)
		payloads = append(payloads, data[2:2+n])
		data = data[2+n:]
	}
	return payloads
}

// frameScript is fuzzFrames' inverse, for seeding.
func frameScript(payloads ...[]byte) (data []byte) {
	for _, p := range payloads {
		data = append(binary.BigEndian.AppendUint16(data, uint16(len(p))), p...)
	}
	return data
}

// nextReply reads frames off a raw connection up to the next reply,
// skipping watch events, and returns the request id it answers.
func nextReply(nc net.Conn) (uint32, error) {
	for {
		payload, err := readFrame(nc)
		if err != nil {
			return 0, err
		}
		d := &dec{b: payload}
		switch op, id := Op(d.u8()), d.u32(); {
		case d.err != nil:
			return 0, fmt.Errorf("the server sent a %d-byte frame", len(payload))
		case op == OpReply:
			return id, nil
		case op != OpEvent:
			return 0, fmt.Errorf("the server sent a %v frame", op)
		}
	}
}

// FuzzServerFrames plays a hello and then arbitrary frames at a real
// server connection — reader, dispatch, store, writer — over net.Pipe.
// Whatever the frames hold, the server must not panic; must answer every
// frame with exactly one reply naming its id, in request order (watch
// events may come in between), or close the connection, which it does
// only at a frame too short to carry an opcode and an id; and must leave
// the store lock free when the connection is gone.
func FuzzServerFrames(f *testing.F) {
	req := func(op Op, id uint32, body func(*enc)) []byte {
		e := &enc{}
		e.op(op, id)
		if body != nil {
			body(e)
		}
		return e.b
	}
	base := store.DomainPath(3)
	path := func(p string) func(*enc) { return func(e *enc) { e.str(p) } }
	write := func(p, v string) func(*enc) { return func(e *enc) { e.str(p).str(v) } }
	batch := req(OpBatch, 9, func(e *enc) { e.b = append(e.b, batchFrame()...) })
	// A watched write, reads of every kind, a removal: the control channel.
	f.Add(frameScript(
		req(OpWatch, 1, func(e *enc) { e.u32(1).str(base) }),
		req(OpWrite, 2, write(base+"/k", "v")),
		req(OpRead, 3, path(base+"/k")),
		req(OpList, 4, path(base)),
		req(Op(9), 5, path(base+"/k")), // reserved: once exists
		req(Op(18), 6, path("/")),      // reserved: once snapshot
		req(OpSync, 7, func(e *enc) { e.str(base).u64(0).u64(0) }),
		req(OpStats, 8, nil),
		batch,
		req(OpRemove, 10, path(base+"/k")),
		req(OpUnwatch, 11, func(e *enc) { e.u32(1) }),
		req(OpPing, 12, nil),
	))
	// A transaction, a grant, an operation on a transaction that is gone.
	f.Add(frameScript(
		req(OpTxnBegin, 1, nil),
		req(OpTxnWrite, 2, func(e *enc) { e.u32(1).str(base + "/t").str("1") }),
		req(OpTxnRead, 3, func(e *enc) { e.u32(1).str(base + "/t") }),
		req(OpTxnCommit, 4, func(e *enc) { e.u32(1) }),
		req(OpTxnAbort, 5, func(e *enc) { e.u32(1) }),
		req(OpGrant, 6, func(e *enc) { e.str(base + "/t").u32(5).u8(uint8(store.PermRead)) }),
	))
	// Frames the server must refuse without dropping the connection: a
	// second hello, an unknown opcode, server-to-client opcodes, a body cut
	// short, a body with bytes left over, a batch cut mid sub-op.
	f.Add(frameScript(
		helloFrame(ProtocolVersion, 3),
		req(Op(200), 1, nil),
		req(OpReply, 2, nil),
		req(OpEvent, 3, nil),
		req(OpWrite, 4, path(base+"/k")),
		req(OpPing, 5, path("left over")),
		batch[:len(batch)/2],
		req(OpRead, 7, path("no/leading/slash")),
	))
	// A frame too short for an opcode and an id ends the connection; what
	// follows is never read.
	f.Add(frameScript(req(OpPing, 1, nil), []byte{byte(OpPing), 0, 0}, req(OpPing, 2, nil)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv, nc := rawConn(t, 3)
		// net.Pipe has no buffer: the frames go out on a goroutine of their
		// own while this one reads what comes back.
		payloads := fuzzFrames(data)
		go func() {
			for _, p := range payloads {
				if writeFrame(nc, p) != nil {
					return // the server hung up, as it does on a short frame
				}
			}
		}()
		// The server hangs up at the first frame too short to answer, and
		// replies still queued then go down with the connection.
		short := slices.IndexFunc(payloads, func(p []byte) bool { return len(p) < replyHdr })
		for i, p := range payloads {
			id, err := nextReply(nc)
			if err != nil {
				if short < 0 || !errors.Is(err, io.EOF) {
					t.Fatalf("frame %d (%x) was never answered: %v", i, p, err)
				}
				break
			}
			if short >= 0 && i >= short {
				t.Fatalf("reply %d arrived for frame %d, past the %d-byte frame %d that should have ended the connection", id, i, len(payloads[short]), short)
			}
			if want := binary.BigEndian.Uint32(p[1:]); id != want {
				t.Fatalf("frame %d (id %d) answered by reply %d", i, want, id)
			}
		}
		nc.Close()
		within(t, 10*time.Second, "the store lock after the connection closed", func() { srv.Counters() })
	})
}
