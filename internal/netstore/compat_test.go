package netstore

// The wire-compat fixture: testdata/frames.txt holds every frame of one
// scripted conversation that uses each request opcode at least once, as
// the encoders of the commit before the op table wrote them. The script
// replayed through today's Client against today's Server must put the
// same bytes on the wire in both directions, and the fixture's request
// bytes played raw at a server must draw its reply bytes — so a layout
// byte that moves on either end fails here, whichever end moved it.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"iorchestra/internal/store"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames.txt from this build's encoders")

const framesFixture = "testdata/frames.txt"

// tap is a connection that keeps both byte streams it carried.
type tap struct {
	net.Conn
	mu        sync.Mutex
	sent, got []byte
}

func (c *tap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got = append(c.got, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// unframe cuts a byte stream into its payloads.
func unframe(t *testing.T, stream []byte) (payloads [][]byte) {
	t.Helper()
	for len(stream) > 0 {
		if len(stream) < 4 || len(stream)-4 < int(binary.BigEndian.Uint32(stream)) {
			t.Fatalf("the stream ends inside a frame: %x", stream)
		}
		n := int(binary.BigEndian.Uint32(stream))
		payloads = append(payloads, stream[4:4+n])
		stream = stream[4+n:]
	}
	return payloads
}

// pipeServer is a fresh server with one connection on a net.Pipe.
func pipeServer(t *testing.T) (*Server, net.Conn) {
	t.Helper()
	srv := NewServer(Options{})
	t.Cleanup(srv.Close)
	nc, peer := net.Pipe()
	t.Cleanup(func() { nc.Close() })
	srv.startConn(peer)
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return srv, nc
}

// conversation plays the fixture's script — each request opcode, a
// failure, a watched write, both ends of a transaction, every batchable
// sub-op — and renders what crossed the wire: one line per frame, "C"
// from the client and "S" from the server, each request followed by the
// events that preceded its reply and then the reply.
func conversation(t *testing.T) string {
	t.Helper()
	_, nc := pipeServer(t)
	wire := &tap{Conn: nc}
	c, err := NewClient(wire, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	base := store.DomainPath(3)
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	must("ping", c.Ping())
	must("write", c.Write(base+"/a", "1"))
	_, err = c.Read(base + "/a")
	must("read", err)
	if _, err = c.Read(base + "/missing"); err == nil {
		t.Fatal("read of a missing node succeeded")
	}
	_, err = c.List(base)
	must("list", err)
	must("grant", c.Grant(base+"/a", 5, store.PermRead))
	seen := make(chan struct{}, 1)
	wid, err := c.Watch(base, func(string, string) { seen <- struct{}{} })
	must("watch", err)
	must("watched write", c.Write(base+"/b", "2"))
	<-seen
	c.Unwatch(wid)
	must("remove", c.Remove(base+"/b"))
	txn, err := c.Begin()
	must("txn.begin", err)
	must("txn.write", txn.Write(base+"/t", "9"))
	_, err = txn.Read(base + "/t")
	must("txn.read", err)
	// The client has no method for txn.remove; the server serves it.
	must("txn.remove", c.callOK(&req{op: OpTxnRemove, id: txn.tid, path: base + "/a"}))
	must("txn.commit", txn.Commit())
	if err := txn.Commit(); err == nil {
		t.Fatal("a finished transaction committed again")
	}
	txn, err = c.Begin()
	must("txn.begin", err)
	must("txn.abort", txn.Abort())
	res, err := c.NewBatch().Write(base+"/c", "3").Read(base+"/c").Read(base+"/missing").List(base).
		Grant(base+"/c", 5, store.PermWrite).Remove(base + "/c").Ping().Run()
	must("batch", err)
	if len(res) != 7 {
		t.Fatalf("batch of 7 returned %d results", len(res))
	}
	_, err = c.SyncSubtree(base, 0, 0)
	must("sync", err)
	if _, err = c.SyncSubtree("/local", 0, 0); err == nil {
		t.Fatal("sync of a root that is no domain subtree succeeded")
	}
	_, err = c.Stats()
	must("stats", err)
	c.Close()

	wire.mu.Lock()
	defer wire.mu.Unlock()
	sent := unframe(t, wire.sent)
	requests := map[uint32][]byte{}
	for _, p := range sent[1:] { // the hello shares id 1 with the first request; it is written first below
		requests[binary.BigEndian.Uint32(p[1:])] = p
	}
	var out strings.Builder
	line := func(side string, p []byte) { fmt.Fprintf(&out, "%s %-10v %x\n", side, Op(p[0]), p) }
	line("C", sent[0])
	var events [][]byte
	for i, p := range unframe(t, wire.got) {
		if Op(p[0]) == OpEvent {
			events = append(events, p)
			continue
		}
		if i > 0 {
			line("C", requests[binary.BigEndian.Uint32(p[1:])])
		}
		for _, ev := range events {
			line("S", ev)
		}
		events = nil
		line("S", p)
	}
	return out.String()
}

// fixtureFrames parses the fixture: side and payload per line.
func fixtureFrames(t *testing.T) (sides []string, payloads [][]byte) {
	t.Helper()
	text, err := os.ReadFile(framesFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(ln)
		if len(f) == 0 || f[0] == "#" {
			continue
		}
		p, err := hex.DecodeString(f[len(f)-1])
		if err != nil || len(f) != 3 {
			t.Fatalf("fixture line %q: %v", ln, err)
		}
		sides, payloads = append(sides, f[0]), append(payloads, p)
	}
	return sides, payloads
}

func TestWireFramesFixture(t *testing.T) {
	if *updateFrames {
		header := "# One conversation, every request opcode: side, opcode, payload (hex, without the\n" +
			"# length prefix). Regenerate with go test -run TestWireFramesFixture -update only\n" +
			"# for a new opcode: a changed line is a broken peer.\n"
		if err := os.WriteFile(framesFixture, []byte(header+conversation(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sides, payloads := fixtureFrames(t)

	t.Run("covers-every-request-opcode", func(t *testing.T) {
		asked := map[Op]bool{}
		for i, p := range payloads {
			if sides[i] == "C" {
				asked[Op(p[0])] = true
			}
		}
		for code, desc := range ops {
			if op := Op(code); !asked[op] && (desc.run != nil || op == OpBatch || op == OpHandshake) {
				t.Errorf("no %v request in the fixture", op)
			}
		}
	})

	t.Run("both-ends", func(t *testing.T) {
		var want strings.Builder
		for i, p := range payloads {
			fmt.Fprintf(&want, "%s %-10v %x\n", sides[i], Op(p[0]), p)
		}
		got := conversation(t)
		gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("frame %d moved:\n now %s\n was %s", i, g, w)
			}
		}
	})

	t.Run("server-alone", func(t *testing.T) {
		_, nc := pipeServer(t)
		for i, p := range payloads {
			if sides[i] == "C" {
				if err := writeFrame(nc, p); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				continue
			}
			got, err := readFrame(nc)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("frame %d, the answer to %x:\n now %x\n was %x", i, payloads[i-1], got, p)
			}
		}
	})
}
