package netstore

// Tests for frameReader, the connection-owned reader that parses frames
// where they land (docs/WIRE_PROTOCOL.md §3): it must hand out the same
// payloads as the one-shot readFrame below over any chunking of the
// stream, and neither strand bytes pipelined behind a hello nor keep a
// big frame's buffer.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"iorchestra/internal/store"
)

// readFrame reads one length-prefixed payload into a fresh buffer: the
// reference frameReader is checked against, and how the tests read a raw
// socket.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, errFrameSize(int(n))
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// framed is the byte stream that carries payloads, each behind its length.
func framed(payloads ...[]byte) (stream []byte) {
	for _, p := range payloads {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(p)))
		stream = append(stream, p...)
	}
	return stream
}

// frameStream is the table's stream: every size class the reader treats
// differently, in the order a connection could carry them.
func frameStream() (stream []byte, payloads [][]byte) {
	hot := (&Client{}).NewBatch()
	for i := 0; i < 96; i++ {
		hot.Write(fmt.Sprintf("%s/k%d", store.DomainPath(1), i%32), strings.Repeat("v", 256))
	}
	e := &enc{}
	e.op(OpBatch, 2).req(&req{op: OpBatch}, hot.ops)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	payloads = [][]byte{
		helloFrame(ProtocolVersion, 1),
		[]byte(okBody),           // a 5-byte OK
		e.b,                      // the hot frame: a batch over 16 KiB
		fill(frameBufMin-4, 'a'), // with its prefix, exactly the starting buffer
		fill(32<<10-4, 'b'),      // bigger than any before it: the buffer grows again
		fill(poolMax+1234, 'c'),  // too big to keep
		{},                       // an empty payload
		fill(9, 'd'),
	}
	return framed(payloads...), payloads
}

func TestFrameReaderStream(t *testing.T) {
	stream, want := frameStream()
	if n := len(want[2]); n < 20<<10 || n > 32<<10 {
		t.Fatalf("the hot frame is %d bytes, want one between 20 and 32 KiB", n)
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":       func(r io.Reader) io.Reader { return r },
		"one-byte":    iotest.OneByteReader,
		"half":        iotest.HalfReader,
		"data-to-eof": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		t.Run(name, func(t *testing.T) {
			fr := frameReader{r: wrap(bytes.NewReader(stream))}
			ref := bytes.NewReader(stream)
			for i := range want {
				got, err := fr.next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				refp, _ := readFrame(ref)
				if !bytes.Equal(got, want[i]) || !bytes.Equal(got, refp) {
					t.Fatalf("frame %d: %d bytes, want %d (same as readFrame)", i, len(got), len(want[i]))
				}
				// Appending to a payload must not reach the bytes behind it,
				// which may already be the next frame's.
				if cap(got) != len(got) {
					t.Errorf("frame %d: payload of %d bytes has capacity %d", i, len(got), cap(got))
				}
				if len(want[i]) > poolMax && len(fr.buf) < len(want[i]) {
					t.Errorf("frame %d: buffer of %d bytes holds a %d-byte payload", i, len(fr.buf), len(want[i]))
				}
			}
			// The frames behind the big one have been read: its buffer went.
			if len(fr.buf) > poolMax {
				t.Errorf("buffer still %d bytes after the %d-byte frame drained", len(fr.buf), poolMax+1234)
			}
			if _, err := fr.next(); err != io.EOF {
				t.Errorf("after the last frame: %v, want io.EOF", err)
			}
		})
	}
}

func TestFrameReaderRefusesOversize(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	fr := frameReader{r: bytes.NewReader(append(hdr, "body"...))}
	if _, err := fr.next(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("a %d-byte length: %v, want ErrBadRequest", MaxFrame+1, err)
	}
	if len(fr.buf) > frameBufMin {
		t.Errorf("refusing the frame grew the buffer to %d bytes", len(fr.buf))
	}
	// A frame of exactly MaxFrame is the protocol's to carry.
	hdr = binary.BigEndian.AppendUint32(nil, MaxFrame)
	fr = frameReader{r: io.MultiReader(bytes.NewReader(hdr), io.LimitReader(zeroes{}, MaxFrame))}
	if p, err := fr.next(); err != nil || len(p) != MaxFrame {
		t.Fatalf("a MaxFrame frame: %d bytes, %v", len(p), err)
	}
}

type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// chunkReader hands out its data in reads sized by chunks (cycled, each
// 1 + the byte), the last one together with io.EOF.
type chunkReader struct {
	data, chunks []byte
	i            int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.chunks) > 0 {
		n = min(n, 1+int(c.chunks[c.i%len(c.chunks)]))
		c.i++
	}
	n = copy(p[:n], c.data)
	if c.data = c.data[n:]; len(c.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// FuzzFrameReader is differential: over any bytes and any chunking of
// them, frameReader hands out exactly the payloads readFrame does, and
// fails where it fails.
func FuzzFrameReader(f *testing.F) {
	stream, _ := frameStream()
	f.Add(stream, []byte{})
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{255, 3, 0, 40})
	f.Add(stream[:len(stream)-5], []byte{200})
	f.Add(stream[:30<<10], []byte{17, 250})
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 0, 0, 0}, MaxFrame+1), []byte{1})
	f.Add([]byte{0, 0}, []byte{})

	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		fr := frameReader{r: &chunkReader{data: data, chunks: chunks}}
		ref := bytes.NewReader(data)
		for i := 0; ; i++ {
			want, werr := readFrame(ref)
			got, gerr := fr.next()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("frame %d: next fails with %v, readFrame with %v", i, gerr, werr)
			}
			if werr != nil {
				if errors.Is(werr, ErrBadRequest) != errors.Is(gerr, ErrBadRequest) {
					t.Fatalf("frame %d: next fails with %v, readFrame with %v", i, gerr, werr)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %d bytes, readFrame reads %d", i, len(got), len(want))
			}
		}
	})
}

// TestHelloAndRequestInOneWrite: what a peer pipelines behind its hello
// is served, not stranded in a reader the handshake threw away.
func TestHelloAndRequestInOneWrite(t *testing.T) {
	_, sock := startServer(t, Options{})
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(framed(helloFrame(ProtocolVersion, 3), (&enc{}).op(OpPing, 2).b)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, what := range []string{"hello", "ping"} {
		if _, status, err := readReply(nc); err != nil || status != nil {
			t.Fatalf("%s reply: %v / %v", what, status, err)
		}
	}
}

// TestHelloReplyAndEventInOneSegment is the client's side of the same
// rule: an event and a frame the client must choke on ride in the
// segment that carries the hello reply. The client decodes the event
// (its path is interned) and dies of the bad opcode — neither was left
// behind in the handshake's reader, which would read as a healthy, idle
// connection.
func TestHelloReplyAndEventInOneSegment(t *testing.T) {
	cli, peer := net.Pipe()
	defer peer.Close()
	path := store.DomainPath(3) + "/k"
	go func() {
		if _, err := readFrame(peer); err != nil {
			return
		}
		hs := replyTo(1, nil)
		hs.u8(ProtocolVersion).u64(0)
		ev := (&enc{}).op(OpEvent, 0).u32(1).str(path).str("v")
		peer.Write(framed(hs.b, ev.b, (&enc{}).op(Op(99), 0).b))
	}()
	c, err := NewClient(cli, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case <-c.closedCh:
	case <-time.After(10 * time.Second):
		t.Fatal("the frames behind the hello reply were never read")
	}
	if err := c.Err(); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "opcode 99") {
		t.Errorf("client died of %v, want the unexpected opcode", err)
	}
	// paths belongs to the read token's holder. The reader that met the
	// bad opcode failed the connection before it let the token go, and the
	// stream is over, so whoever takes the token now reads nothing more.
	<-c.tok
	if _, ok := c.paths[path]; !ok {
		t.Errorf("the event behind the hello reply was not decoded")
	}
}
