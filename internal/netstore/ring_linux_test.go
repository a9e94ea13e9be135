package netstore

// Tests for the shared-memory transport (ring.go, ring_linux.go): the
// rings carry any byte stream intact and refuse a peer's impossible
// indexes, no wake-up is lost between a producer and a reader that parks,
// an idle ring costs nothing, and whatever a hello carries beside its
// bytes is either taken or closed — never leaked.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"iorchestra/internal/store"
)

// socketPair is two connected Unix stream sockets.
func socketPair(t testing.TB) (*net.UnixConn, *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ends [2]*net.UnixConn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		c, err := net.FileConn(f) // a duplicate: the original closes here
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = c.(*net.UnixConn)
	}
	return ends[0], ends[1]
}

// ringPair is both sides of one region of two size-byte rings, in memory
// the collector owns, over a socket pair. Both are closed with the test.
func ringPair(t testing.TB, size int) (cli, srv *ringConn) {
	t.Helper()
	a, b := socketPair(t)
	mem := make([]byte, ringHdr+2*size)
	var err error
	if cli, err = newRingConn(a, mem, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	if srv, err = newRingConn(b, mem, true, nil, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// ringTo connects a raw peer to srv over a region of two size-byte rings
// on a socket pair, as if the handshake had taken an offer of it: the
// server's end is a ring connection from the start, with rings as small
// as a test needs. It returns the peer's end, before its hello.
func ringTo(t testing.TB, srv *Server, size int) net.Conn {
	t.Helper()
	a, b := socketPair(t)
	mem := make([]byte, ringHdr+2*size)
	end, err := newRingConn(b, mem, true, nil, &srv.doorbells)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := newRingConn(a, mem, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	srv.startConn(end)
	return peer
}

// streamByte is the i-th byte of the fuzz stream.
func streamByte(i int) byte { return byte(i*7 + i>>8) }

// FuzzRingStream streams bytes through a 64-byte ring: each script byte is
// a write of 1 to 382 bytes — up to six times the ring, so writes wrap
// and wait for room — and its high bit pauses the producer first, past
// spinFor, so the reader parks between chunks. The reader reads in
// sizes of its own; what comes out must be what went in. Mode 1 and 2
// then write an impossible index into the shared header — a tail past
// the ring or behind what was read, a head past what was written or
// behind what was seen — and the side that reads it must refuse it and
// close, which the other side sees as the end of the stream.
func FuzzRingStream(f *testing.F) {
	f.Add([]byte{0, 0, 20, 21, 22, 0x80 | 30, 127, 0x80, 5})
	f.Add([]byte{1, 10, 0x80 | 21})
	f.Add([]byte{2, 127, 127})
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		const size = 64
		mode, script := script[0]%3, script[1:]
		cli, srv := ringPair(t, size)
		total := 0
		for _, b := range script {
			total += int(b&0x7f)*3 + 1
		}
		produced := make(chan error, 1)
		go func() {
			buf := make([]byte, 0, 382)
			sent := 0
			for _, b := range script {
				if b&0x80 != 0 {
					time.Sleep(2 * spinFor)
				}
				buf = buf[:0]
				for n := int(b&0x7f)*3 + 1; n > 0; n-- {
					buf = append(buf, streamByte(sent))
					sent++
				}
				if _, err := cli.Write(buf); err != nil {
					produced <- err
					return
				}
			}
			produced <- nil
		}()
		within(t, 30*time.Second, "the stream", func() {
			buf := make([]byte, 97)
			for got, k := 0, 0; got < total; k++ {
				n, err := srv.Read(buf[:1+k%len(buf)])
				if err != nil {
					t.Errorf("read at byte %d of %d: %v", got, total, err)
					return
				}
				for _, c := range buf[:n] {
					if c != streamByte(got) {
						t.Errorf("byte %d is %#x, want %#x", got, c, streamByte(got))
						return
					}
					got++
				}
			}
		})
		if err := <-produced; err != nil {
			t.Fatalf("write: %v", err)
		}
		if t.Failed() || mode == 0 {
			return
		}
		x := uint32(len(script))
		victim, other := srv, cli
		if mode == 1 {
			if x%2 == 0 {
				srv.in.tail.Store(srv.in.pos + size + 1 + x)
			} else {
				srv.in.tail.Store(srv.in.seen - 1 - x)
			}
			_, err := srv.Read(make([]byte, 8))
			if !errors.Is(err, errRingIndex) {
				t.Fatalf("read after a hostile tail: %v, want %v", err, errRingIndex)
			}
		} else {
			victim, other = cli, srv
			if x%2 == 0 {
				cli.out.head.Store(cli.out.pos + 1 + x)
			} else {
				cli.out.head.Store(cli.out.seen - 1 - x)
			}
			if _, err := cli.Write([]byte{1}); !errors.Is(err, errRingIndex) {
				t.Fatalf("write after a hostile head: %v, want %v", err, errRingIndex)
			}
		}
		if _, err := victim.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("the side that met the hostile index is still open: %v", err)
		}
		within(t, 10*time.Second, "the peer seeing the close", func() {
			if _, err := other.Read(make([]byte, 1)); err == nil {
				t.Error("the peer read on after the close")
			}
		})
	})
}

// TestRingNoLostWakeup plays 100,000 one-byte ping-pongs across a ring
// pair at GOMAXPROCS 1 and 2. Either side pauses past spinFor one round
// in 64, so its peer parks — on the doorbell, or on a wake from whoever
// is spinning — and a wake-up lost on either path hangs the run.
func TestRingNoLostWakeup(t *testing.T) {
	const rounds = 100_000
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cli, srv := ringPair(t, 64)
			rng := rand.New(rand.NewSource(int64(procs)))
			pause := make([]uint8, rounds) // bit 0: the pinger pauses, bit 1: the echo side
			for i := range pause {
				if rng.Intn(64) == 0 {
					pause[i] = uint8(1 + rng.Intn(2))
				}
			}
			echoed := make(chan error, 1)
			go func() {
				var b [1]byte
				for i := 0; i < rounds; i++ {
					if _, err := io.ReadFull(srv, b[:]); err != nil {
						echoed <- err
						return
					}
					if pause[i]&2 != 0 {
						time.Sleep(2 * spinFor)
					}
					if _, err := srv.Write(b[:]); err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			within(t, 2*time.Minute, fmt.Sprintf("%d ping-pongs", rounds), func() {
				var b [1]byte
				for i := 0; i < rounds; i++ {
					if pause[i]&1 != 0 {
						time.Sleep(2 * spinFor)
					}
					b[0] = byte(i)
					if _, err := cli.Write(b[:]); err != nil {
						t.Errorf("ping %d: %v", i, err)
						return
					}
					if _, err := io.ReadFull(cli, b[:]); err != nil || b[0] != byte(i) {
						t.Errorf("pong %d: %#x, %v", i, b[0], err)
						return
					}
				}
			})
			if err := <-echoed; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAcceptedRingNotTakenFailsTheDial: once the server has accepted a
// ring it reads no frames from the socket, so a client that cannot take
// the ring (here: its socket is already closed) must not fall back to it.
func TestAcceptedRingNotTakenFailsTheDial(t *testing.T) {
	a, b := socketPair(t)
	a.Close()
	b.Close()
	mem := make([]byte, regionSize)
	word(mem, 0).Store(ringAccepted)
	if nc, err := takeRing(a, mem); err == nil {
		t.Fatalf("an accepted ring the client could not take left it on %T", nc)
	}
}

// TestIdleRingBurnsNoCPU: four connected ring clients that have gone idle
// cost the process under 20 ms of CPU over a second — their readers have
// stopped spinning and sleep on their sockets.
func TestIdleRingBurnsNoCPU(t *testing.T) {
	srv, sock := startServer(t, Options{})
	for dom := store.DomID(1); dom <= 4; dom++ {
		c := dialT(t, sock, dom)
		base := store.DomainPath(dom)
		if _, err := c.Watch(base, func(string, string) {}); err != nil {
			t.Fatal(err)
		}
		if err := c.Write(base+"/k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Counters().RingConns; n != 4 {
		t.Fatalf("%d of 4 clients on a ring", n)
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(time.Second)
	if used := cpu() - before; used >= 20*time.Millisecond {
		t.Errorf("four idle ring clients cost %v of CPU in 1 s, budget 20 ms", used)
	} else {
		t.Logf("four idle ring clients: %v of CPU in 1 s", used)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t testing.TB) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// memfd is an anonymous file of n bytes that can be sealed.
func memfd(t testing.TB, n int64) int {
	t.Helper()
	name := [...]byte{'t', 0}
	r, _, errno := syscall.Syscall(memfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	if err := syscall.Ftruncate(int(r), n); err != nil {
		t.Fatal(err)
	}
	return int(r)
}

// badOffers are the descriptors a fuzzed hello carries, by mode: none, a
// region-sized file that is not sealed, a sealed file of the wrong size, a
// pipe (no file at all), and two good regions at once.
func badOffer(t testing.TB, mode uint8) []int {
	t.Helper()
	switch mode % 5 {
	case 1:
		return []int{memfd(t, regionSize)}
	case 2:
		fd := memfd(t, 4<<10)
		if err := fcntl(fd, fAddSeals, fSealShrink|fSealGrow); err != nil {
			t.Fatal(err)
		}
		return []int{fd}
	case 3:
		var p [2]int
		if err := syscall.Pipe2(p[:], syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		syscall.Close(p[1])
		return p[:1]
	case 4:
		a, b := newRegion(), newRegion()
		if a < 0 || b < 0 {
			t.Fatal("no region")
		}
		return []int{a, b}
	}
	return nil
}

// FuzzHello plays arbitrary hello bytes at a real server connection over
// a Unix socket pair, with a descriptor payload no server may take
// (badOffer), then half-closes. The server must answer or close; once the
// connection is gone, every descriptor that came with the hello is
// closed and the store lock is free (Counters takes it, under within's
// deadline).
func FuzzHello(f *testing.F) {
	hello := framed(helloFrame(ProtocolVersion, 3))
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(mode, hello)
	}
	f.Add(uint8(4), framed(helloFrame(ProtocolVersion+1, 3)))
	f.Add(uint8(1), framed(helloFrame(ProtocolVersion, 3), (&enc{}).op(OpPing, 2).b))
	f.Add(uint8(3), hello[:7])
	f.Add(uint8(0), []byte{0, 0, 0, 1, 0xff})
	a, b := socketPair(f) // the runtime's poller is up before the first count
	a.Close()
	b.Close()
	f.Fuzz(func(t *testing.T, mode uint8, hello []byte) {
		base := openFDs(t)
		srv := NewServer(Options{})
		defer srv.Close()
		cli, peer := socketPair(t)
		srv.startConn(peer)
		if len(hello) > 0 {
			fds := badOffer(t, mode)
			var oob []byte
			if fds != nil {
				oob = syscall.UnixRights(fds...)
			}
			_, _, err := cli.WriteMsgUnix(hello, oob, nil)
			for _, fd := range fds {
				syscall.Close(fd)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		cli.CloseWrite()
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := readFrame(cli); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("the hello was neither answered nor closed: %v", err)
		}
		cli.Close()
		within(t, 10*time.Second, "the connection going away", func() {
			for srv.Counters().Active != 0 {
				time.Sleep(time.Millisecond)
			}
		})
		if n := openFDs(t); n != base {
			t.Fatalf("%d descriptors open once the connection is gone, %d before", n, base)
		}
		if n := srv.Counters().RingConns; n != 0 {
			t.Fatalf("a bad offer put %d connections on a ring", n)
		}
	})
}

// TestRingFlushFallsBackToWriter puts a watcher on 1 KiB rings, where
// bursts of events and replies larger than the ring overrun it, so the
// flush leaves them to the writer, at GOMAXPROCS 1 and 2. It reads the
// raw stream: every frame arrives once and in queue order — the first
// round's 300 keys each once and in write order, though the notify queue
// holds 16 and the rest lag, and each reply to its own reads in request
// order, whole — and every key's final value arrives.
func TestRingFlushFallsBackToWriter(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ringFlushFallsBackToWriter(t)
		})
	}
}

func ringFlushFallsBackToWriter(t *testing.T) {
	const size, keys = 1 << 10, 300
	srv, sock := startServer(t, Options{NotifyQueue: 16})
	writer := dialT(t, sock, 3)
	base := store.DomainPath(3)
	big := strings.Repeat("b", 3*size)
	if err := writer.Write(base+"/big", big); err != nil {
		t.Fatal(err)
	}
	nc := ringTo(t, srv, size)
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	request(t, nc, &enc{b: helloFrame(ProtocolVersion, 3)})
	request(t, nc, (&enc{}).op(OpWatch, 2).u32(1).str(base+"/keys"))
	for _, what := range []string{"hello", "watch"} {
		if _, status, err := readReply(nc); err != nil || status != nil {
			t.Fatalf("%s: %v / %v", what, status, err)
		}
	}

	// An event is a path and value, a reply (to a read) an id and value.
	type frame struct {
		id          uint32
		path, value string
	}
	// Room for every frame the test provokes: the reader never waits.
	frames := make(chan frame, 4096)
	go func() {
		defer close(frames)
		fr := frameReader{r: nc}
		for {
			payload, err := fr.next()
			if err != nil {
				return
			}
			d := &dec{b: payload}
			switch op, id := Op(d.u8()), d.u32(); op {
			case OpEvent:
				d.u32()
				frames <- frame{path: d.str(), value: d.str()}
			case OpReply:
				d.u8()
				d.str()
				frames <- frame{id: id, value: d.str()}
			}
		}
	}()
	next := func(what string) frame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("the stream ended before %s", what)
			}
			return f
		case <-time.After(30 * time.Second):
			t.Fatalf("no %s within 30 s", what)
		}
		panic("unreachable")
	}
	keyPath := func(i int) string { return fmt.Sprintf("%s/keys/%d", base, i) }
	value := func(i int) string {
		if i%10 == 0 {
			return strings.Repeat("v", 3*size/2) + fmt.Sprint(i) // an event larger than the ring
		}
		return fmt.Sprint(i)
	}

	// Round one: every key once, in two batches with a large read of the
	// watcher's own after each.
	for half := 0; half < 2; half++ {
		b := writer.NewBatch()
		for i := half * keys / 2; i < (half+1)*keys/2; i++ {
			b.Write(keyPath(i), value(i))
		}
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
		request(t, nc, (&enc{}).op(OpRead, uint32(10+half)).str(base+"/big"))
	}
	events, replies := 0, 0
	for events < keys || replies < 2 {
		f := next(fmt.Sprintf("event %d of %d, reply %d of 2", events, keys, replies))
		if f.id != 0 {
			if want := uint32(10 + replies); f.id != want || f.value != big {
				t.Fatalf("reply %d: id %d with %d bytes, want id %d with %d", replies, f.id, len(f.value), want, len(big))
			}
			replies++
			continue
		}
		if f.path != keyPath(events) || f.value != value(events) {
			t.Fatalf("event %d = %s (%d bytes), want %s (%d bytes)", events, f.path, len(f.value), keyPath(events), len(value(events)))
		}
		events++
	}

	// Round two: 50 keys rewritten ten times, coalescing as they queue.
	// Each key's values arrive in write order, the last one included.
	for r := 0; r < 10; r++ {
		b := writer.NewBatch()
		for i := 0; i < 50; i++ {
			b.Write(keyPath(i), fmt.Sprintf("r%d", r))
		}
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Write(base+"/keys/end", "end"); err != nil {
		t.Fatal(err)
	}
	last := map[string]string{}
	for f := next("round two"); f.path != base+"/keys/end"; f = next("round two") {
		if f.id != 0 || f.value < last[f.path] {
			t.Fatalf("round two: %+v after %q", f, last[f.path])
		}
		last[f.path] = f.value
	}
	for i := 0; i < 50; i++ {
		if last[keyPath(i)] != "r9" {
			t.Errorf("%s ended at %q, want r9", keyPath(i), last[keyPath(i)])
		}
	}
	if len(last) != 50 {
		t.Errorf("round two touched %d keys, want 50", len(last))
	}
	srv.Close()
	if ctr := srv.Counters(); ctr.Evicted != 0 || ctr.WriterFlushes == 0 {
		t.Errorf("evicted %d, writer flushes %d: want none evicted and the writer carrying what overran the ring", ctr.Evicted, ctr.WriterFlushes)
	}
}

// TestWatchedWriteFlushAllocs pins the flush: a warm watched write whose
// event a ring connection's flush copies into the ring as the store lock
// is released allocates nothing — no scratch, no list growth, no copy of
// the event. The peer reads each event into a buffer of its own.
func TestWatchedWriteFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	srv := NewServer(Options{})
	t.Cleanup(srv.Close)
	nc := ringTo(t, srv, ringSize)
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	key := store.DiskPath(3, "xvda", "nr_dirty")
	request(t, nc, &enc{b: helloFrame(ProtocolVersion, 3)})
	request(t, nc, (&enc{}).op(OpWrite, 2).str(key).str("0"))
	request(t, nc, (&enc{}).op(OpWatch, 3).u32(1).str(key))
	for _, what := range []string{"hello", "write", "watch"} {
		if _, status, err := readReply(nc); err != nil || status != nil {
			t.Fatalf("%s: %v / %v", what, status, err)
		}
	}
	values := [2]string{"4096", "8192"}
	var buf [256]byte
	n := 0
	write := func() {
		n++
		srv.do(func(t *tree) { t.st.Write(3, key, values[n%2]) })
		if _, err := io.ReadFull(nc, buf[:4]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, buf[:binary.BigEndian.Uint32(buf[:4])]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		write()
	}
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Errorf("a watched write flushed into a ring allocates %.1f times, want 0", allocs)
	}
	if Op(buf[0]) != OpEvent {
		t.Errorf("the peer read %x, want an event", buf[:16])
	}
}
