package netstore

// Tests for the shared-memory transport (ring.go, ring_linux.go): the
// rings carry any byte stream intact and refuse a peer's impossible
// indexes, no wake-up is lost between a producer and a reader that parks,
// an idle ring costs nothing, and whatever a hello carries beside its
// bytes is either taken or closed — never leaked.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
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
