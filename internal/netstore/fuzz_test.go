package netstore

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

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
	e := &enc{}
	encodeBatch(e, b.ops)
	return e.b
}

// FuzzDecodeBatch feeds arbitrary bytes to the server's batch decoder —
// the one place a peer's count sizes a loop. It must never panic, never
// hand back more than MaxBatchOps sub-ops, and accept only frames whose
// every sub-op is batchable and inside the wire's path and value bounds.
func FuzzDecodeBatch(f *testing.F) {
	valid := batchFrame()
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	f.Add(binary.BigEndian.AppendUint32(nil, 1<<32-1))
	unbatchable := append([]byte(nil), valid...)
	unbatchable[4+1+4+len(store.DomainPath(3)+"/k0")+4+1] = byte(OpWatch) // the second sub-op's opcode
	if _, err := decodeBatch(&dec{b: unbatchable}, nil); err == nil || !strings.Contains(err.Error(), "not batchable") {
		f.Fatalf("the un-batchable seed decodes with %v", err)
	}
	f.Add(unbatchable)

	f.Fuzz(func(t *testing.T, body []byte) {
		subs, err := decodeBatch(&dec{b: body, paths: pathTable{}}, nil)
		if len(subs) > MaxBatchOps {
			t.Fatalf("%d sub-ops decoded, MaxBatchOps is %d", len(subs), MaxBatchOps)
		}
		if err != nil {
			return
		}
		if n := binary.BigEndian.Uint32(body); int(n) != len(subs) {
			t.Fatalf("frame announces %d sub-ops, %d decoded without error", n, len(subs))
		}
		for i, so := range subs {
			switch so.op {
			case OpPing, OpRead, OpWrite, OpRemove, OpList, OpExists, OpGrant:
			default:
				t.Fatalf("sub-op %d: %v accepted, not batchable", i, so.op)
			}
			if len(so.path) > MaxPath || len(so.value) > MaxValue {
				t.Fatalf("sub-op %d: path of %d bytes, value of %d accepted", i, len(so.path), len(so.value))
			}
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
