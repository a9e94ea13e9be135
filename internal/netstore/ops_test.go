package netstore

// Tests for the op table (docs/WIRE_PROTOCOL.md §3): one description per
// opcode serves single frames and batch sub-ops, so a batched op is the
// op it replaces; what the table does not describe is refused; and the
// document's opcode table is the code's.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"iorchestra/internal/store"
)

// rawConn is a fresh server and a raw connection to it, bound to dom.
func rawConn(t *testing.T, dom store.DomID) (*Server, net.Conn) {
	t.Helper()
	srv, nc := pipeServer(t)
	if err := writeFrame(nc, helloFrame(ProtocolVersion, dom)); err != nil {
		t.Fatal(err)
	}
	if _, status, err := readReply(nc); err != nil || status != nil {
		t.Fatalf("hello: %v / %v", status, err)
	}
	return srv, nc
}

// ask sends r as one frame (subs its sub-ops, for a batch) and returns
// its reply: the status as an error and everything from the status byte on.
func ask(t *testing.T, nc net.Conn, r *req, subs ...req) (status error, reply []byte) {
	t.Helper()
	if err := writeFrame(nc, (&enc{}).op(r.op, 77).req(r, subs).b); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(nc)
	if err != nil {
		t.Fatalf("%v: %v", r.op, err)
	}
	d := &dec{b: payload[replyHdr:]}
	return errOf(Status(d.u8()), d.str()), payload[replyHdr:]
}

// TestUndescribedOpcodesRefused: an opcode the table gives no executor —
// the reserved codes 9 and 18 (once exists and snapshot), the
// server-to-client opcodes, a second hello, anything past the table — is
// answered BAD_REQUEST whatever its body, and the connection stays up.
func TestUndescribedOpcodesRefused(t *testing.T) {
	_, nc := rawConn(t, 3)
	for _, code := range []Op{0, 9, 18, OpHandshake, OpReply, OpEvent, Op(len(ops)), 255} {
		for _, body := range [][]byte{nil, (&enc{}).str(store.DomainPath(3)).b} {
			if err := writeFrame(nc, append((&enc{}).op(code, 5).b, body...)); err != nil {
				t.Fatal(err)
			}
			if _, status, err := readReply(nc); err != nil || !errors.Is(status, ErrBadRequest) {
				t.Fatalf("opcode %d with a %d-byte body: %v / %v, want BAD_REQUEST", code, len(body), status, err)
			}
		}
		if name := code.String(); (code == 9 || code == 18) && name != fmt.Sprintf("op(%d)", code) {
			t.Errorf("reserved opcode %d is named %q", code, name)
		}
	}
	if status, _ := ask(t, nc, &req{op: OpPing}); status != nil {
		t.Fatalf("ping after the refusals: %v", status)
	}
}

// TestGrantRefusesUndefinedPerm: the perm byte of a wire grant is outside
// input. The store reads any value of at least PermWrite as write access,
// so 3…255 must not reach it: the one decoder refuses them, on a single
// frame and on a sub-op, and a batch carrying one fails as a whole —
// nothing of it runs.
func TestGrantRefusesUndefinedPerm(t *testing.T) {
	srv, nc := rawConn(t, 3)
	key := store.DomainPath(3) + "/k"
	if status, _ := ask(t, nc, &req{op: OpWrite, path: key, value: "v"}); status != nil {
		t.Fatal(status)
	}
	for _, perm := range []store.Perm{store.PermWrite + 1, 200, 255} {
		grant := req{op: OpGrant, path: key, target: 5, perm: perm}
		if status, _ := ask(t, nc, &grant); !errors.Is(status, ErrBadRequest) {
			t.Errorf("grant of perm %d: %v, want BAD_REQUEST", perm, status)
		}
		if status, _ := ask(t, nc, &req{op: OpBatch}, req{op: OpWrite, path: key + "2", value: "ran"}, grant); !errors.Is(status, ErrBadRequest) {
			t.Errorf("batched grant of perm %d: %v, want BAD_REQUEST for the frame", perm, status)
		}
	}
	srv.Do(func(st *store.Store) {
		if _, err := st.Read(5, key); !errors.Is(err, store.ErrPermission) {
			t.Errorf("dom5 reads %s after the refused grants: %v", key, err)
		}
		if st.Exists(key + "2") {
			t.Error("a batch with a malformed sub-op ran the write before it")
		}
	})
	for perm := store.PermNone; perm <= store.PermWrite; perm++ {
		if status, _ := ask(t, nc, &req{op: OpGrant, path: key, target: 5, perm: perm}); status != nil {
			t.Errorf("grant of perm %d: %v", perm, status)
		}
	}
}

// opScript is n seeded batchable ops as dom 3 would send them: every
// batchable row of the table takes part, over a few keys, with the
// failures a guest can provoke mixed in (a path that is not one, another
// domain's subtree, a key never written).
func opScript(seed int64, n int) []req {
	rng := rand.New(rand.NewSource(seed))
	base := store.DomainPath(3)
	paths := []string{base, base + "/a", base + "/a/deep", base + "/b", base + "/c", base + "/never",
		store.DomainPath(4) + "/theirs", "no/leading/slash"}
	var batchable []Op
	for code, desc := range ops {
		if desc.batch {
			batchable = append(batchable, Op(code))
		}
	}
	script := make([]req, n)
	for i := range script {
		script[i] = req{
			op:     batchable[rng.Intn(len(batchable))],
			path:   paths[rng.Intn(len(paths))],
			value:  fmt.Sprint("v", rng.Intn(4)),
			target: store.DomID(4 + rng.Intn(2)),
			perm:   store.Perm(rng.Intn(3)),
		}
		if rng.Intn(3) > 0 { // writes are what moves the tree and fires the watch
			script[i].op = OpWrite
		} else if script[i].op == OpRemove && script[i].path == base {
			script[i].op = OpList // the guest's whole subtree gone, little else would succeed
		}
	}
	return script
}

// played is what one playing of a script leaves behind.
type played struct {
	replies [][]byte // per op: status, message, body
	events  []string // every store delivery under the guest's subtree, in order
	tree    map[string]string
	version uint64
}

// play runs script against a fresh server, as single frames or as one
// batch. Deliveries are logged by an in-process watch: the wire's own
// event stream coalesces by timing, the store's does not.
func play(t *testing.T, script []req, batched bool) played {
	t.Helper()
	srv, nc := rawConn(t, 3)
	var out played
	srv.Do(func(st *store.Store) {
		st.Watch(store.Dom0, store.DomainPath(3), func(p, v string) { out.events = append(out.events, p+"="+v) })
	})
	if batched {
		status, reply := ask(t, nc, &req{op: OpBatch}, script...)
		if status != nil {
			t.Fatalf("batch: %v", status)
		}
		d := &rdec{s: string(reply[len(okBody):])}
		if n := d.u32(); int(n) != len(script) {
			t.Fatalf("batch of %d answered with %d results", len(script), n)
		}
		// A sub-reply is status, message and, on OK, what the op's reply
		// decoder reads: cut the frame where each one ends.
		for i := range script {
			start := d.s
			if st := Status(d.u8()); d.str() == "" && st == StatusOK {
				switch script[i].op {
				case OpRead:
					d.str()
				case OpList:
					d.names()
				}
			}
			out.replies = append(out.replies, []byte(start[:len(start)-len(d.s)]))
		}
		if err := d.done(); err != nil {
			t.Fatalf("batch reply: %v", err)
		}
	} else {
		for i := range script {
			_, reply := ask(t, nc, &script[i])
			out.replies = append(out.replies, reply)
		}
	}
	out.tree = treeOf(srv, store.Dom0, store.Root)
	srv.Do(func(st *store.Store) { out.version = st.Version() })
	return out
}

// TestBatchedOpIsTheSingleOp plays one seeded script twice against fresh
// servers — as N single frames and as one batch — and requires what the
// op table promises: byte-identical per-op replies, the same final tree
// at the same version, the same watch deliveries in the same order.
func TestBatchedOpIsTheSingleOp(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		script := opScript(seed, 300)
		single, batch := play(t, script, false), play(t, script, true)
		failures := 0
		for i := range script {
			if !bytes.Equal(single.replies[i], batch.replies[i]) {
				t.Fatalf("seed %d op %d (%v %s): single frame answered %x, sub-op %x",
					seed, i, script[i].op, script[i].path, single.replies[i], batch.replies[i])
			}
			if single.replies[i][0] != byte(StatusOK) {
				failures++
			}
		}
		if !reflect.DeepEqual(single.tree, batch.tree) || single.version != batch.version {
			t.Errorf("seed %d: trees differ: %v at v%d single, %v at v%d batched", seed, single.tree, single.version, batch.tree, batch.version)
		}
		if !reflect.DeepEqual(single.events, batch.events) {
			t.Errorf("seed %d: deliveries differ:\n single  %v\n batched %v", seed, single.events, batch.events)
		}
		if failures < 10 || len(single.events) < 50 || len(single.tree) < 3 {
			t.Errorf("seed %d: the script exercised little: %d failures, %d deliveries, %d nodes", seed, failures, len(single.events), len(single.tree))
		}
	}
}

// TestWireProtocolDocOpcodeTable parses the opcode table of
// docs/WIRE_PROTOCOL.md §3 and holds it to the code's: same names, same
// codes, same batchable set, the reserved codes marked and every request
// opcode listed.
func TestWireProtocolDocOpcodeTable(t *testing.T) {
	text, err := os.ReadFile("../../docs/WIRE_PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| (`[a-z.]+`|\\*reserved\\*) \\| (\\d+) \\| (yes|no|—) \\|")
	documented := map[Op]bool{}
	for _, m := range row.FindAllStringSubmatch(string(text), -1) {
		n, _ := strconv.Atoi(m[2])
		code, name := Op(n), strings.Trim(m[1], "`")
		documented[code] = true
		if name == "*reserved*" {
			if n < len(ops) && (ops[code].name != "" || ops[code].run != nil) {
				t.Errorf("opcode %d is reserved in the document and %q in the table", n, ops[code].name)
			}
			continue
		}
		if n >= len(ops) || ops[code].name != name {
			t.Errorf("the document names opcode %d %q, the table %q", n, name, code)
			continue
		}
		if ops[code].batch != (m[3] == "yes") {
			t.Errorf("%v: batchable %q in the document, %v in the table", code, m[3], ops[code].batch)
		}
	}
	for code, desc := range ops {
		if op := Op(code); (desc.run != nil || op == OpBatch) && !documented[op] {
			t.Errorf("%v (opcode %d) is missing from the document's table", op, code)
		}
	}
	if !documented[9] || !documented[18] {
		t.Error("the document's table does not mark opcodes 9 and 18 reserved")
	}
}
