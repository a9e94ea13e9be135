package netstore

// The shared-memory transport for co-located peers. A client that dials
// a Unix socket offers, with its hello, a region both processes map: two
// single-producer byte rings, one per direction. When the server takes
// the offer, every frame after the hello travels through the rings and
// the socket carries only doorbells — one byte, sent only to a consumer
// that has said it is parked, as Xen's req_event/rsp_event do — and the
// EOF that says the peer is gone. ringConn is that transport as a
// net.Conn, so the frame path above it has one shape for both.
//
// Region layout (docs/WIRE_PROTOCOL.md §6), every word a native-endian
// uint32 written and read atomically:
//
//	page 0   accepted (offset 0): set by the server before its hello reply
//	         up ring (client → server): tail @64, head @128, parked @132
//	         down ring (server → client): tail @192, head @256, parked @260
//	page 1…  up ring's bytes, then the down ring's (ringSize, 64 KiB, each)
//
// A tail is what its producer has ever written and a head what its
// consumer has ever read, both modulo 2^32; the ring's bytes are
// [head, tail) at offsets masked by the power-of-two size. Each side
// keeps its own index privately and only publishes it, and treats the
// peer's as untrusted input: a tail outside [last seen, head + size] or a
// head outside [last seen, tail] closes the connection.
//
// A reader that finds its ring empty yields and looks again for spinFor,
// then parks on its socket until a doorbell. The runtime polls the
// network only when it has nothing else to run, so while any reader in
// the process spins a doorbell would wait for the system monitor, up to
// 10 ms: the spinners therefore also watch the parked readers' rings and
// wake one whose ring has filled (wakeSleepers).

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	// ringSize is one direction's ring: a 96-op batch frame fits whole,
	// and so do the reply and events of one writer flush (its 48 KiB
	// budget). Between 16 and 256 KiB no wire workload reads a difference
	// (docs/PERFORMANCE.md §1, "Co-located peers share a ring").
	ringSize = 64 << 10
	// ringHdr is the page that holds the accepted word and the indexes.
	ringHdr    = 4 << 10
	regionSize = ringHdr + 2*ringSize
	// ringAccepted is the accepted word's value once the server has
	// taken the offer.
	ringAccepted = 1

	// spinFor is how long a reader that finds its ring empty yields and
	// looks again before it parks, and how soon its data must have come
	// for the next wait to spin at all: longer than a 96-op batch's reply
	// takes, which 20 µs is not (docs/PERFORMANCE.md §1).
	spinFor = 50 * time.Microsecond

	// closing is ringConn.users' flag bit; the rest counts calls inside.
	closing = 1 << 62
)

var (
	errRingIndex = fmt.Errorf("%w: ring index out of range", ErrBadRequest)
	doorbell     = [1]byte{1}
	longAgo      = time.Unix(1, 0)
)

// sleepers are this process's readers parked on their sockets. It is
// process state by nature: any spinning reader may wake any of them.
var sleepers = struct {
	mu  sync.Mutex
	n   atomic.Int32 // len(set), for a spinner's check without mu
	set map[*ringConn]struct{}
}{set: map[*ringConn]struct{}{}}

// wakeSleepers ends the socket wait of every parked reader whose ring
// has data, by expiring its read deadline. A reader is unmapped only
// after it has left the set, and the set is read under mu; a spinner
// that finds mu taken looks again on its next turn.
func wakeSleepers() {
	if !sleepers.mu.TryLock() {
		return
	}
	for rc := range sleepers.set {
		if rc.in.tail.Load() != rc.in.head.Load() && rc.kicked.CompareAndSwap(false, true) {
			rc.sock.SetReadDeadline(longAgo)
		}
	}
	sleepers.mu.Unlock()
}

// ring is one direction as one side sees it.
type ring struct {
	tail, head, parked *atomic.Uint32
	data               []byte
	pos                uint32 // the index this side publishes: tail as producer, head as consumer
	seen               uint32 // the peer's index as last read
}

func word(mem []byte, off int) *atomic.Uint32 { return (*atomic.Uint32)(unsafe.Pointer(&mem[off])) }

// ringConn is one side of an accepted region. It allows one Read and one
// Write or putAll at a time, like the frame reader above it and the
// server's flush and writer, which take turns (srvConn.wbusy).
type ringConn struct {
	// sock is the Unix socket as a pollable file. A park waits in its raw
	// read, and the deadline error a wake ends that wait with comes back
	// as it is: a net.Conn would wrap it, one allocation per wake.
	sock         *os.File
	raw          syscall.RawConn
	laddr, raddr net.Addr
	mem          []byte
	in, out      ring
	unmap        func([]byte) error // nil for memory the collector owns
	// bell writes one doorbell and wait reads what doorbells there are
	// into bellBuf, keeping the result in bellN and bellErr; both are made
	// once, so neither allocates. doorbells, when set, counts the ones
	// that went out.
	bell, wait func(fd uintptr) bool
	doorbells  *atomic.Uint64
	bellN      int
	bellErr    error

	// users counts Reads, Writes and Closes inside, plus the closing bit;
	// the region is unmapped once closing is set and the count is zero.
	users    atomic.Int64
	unmapped atomic.Bool
	rdl, wdl atomic.Int64 // deadlines, Unix ns; 0: none
	kicked   atomic.Bool  // wakeSleepers expired the socket's read deadline
	// hot says the reader's last wait ended within spinFor, so the next
	// one spins; a reader starts cold. Reader-owned, like bellBuf.
	hot     bool
	bellBuf [64]byte
}

// newRingConn takes over uc — it closes it, keeping a duplicate — and
// wraps it and a region (regionSize bytes in production; a test may pass
// a smaller power-of-two split). server picks the side.
func newRingConn(uc *net.UnixConn, mem []byte, server bool, unmap func([]byte) error, doorbells *atomic.Uint64) (*ringConn, error) {
	size := (len(mem) - ringHdr) / 2
	if size <= 0 || size&(size-1) != 0 {
		return nil, fmt.Errorf("netstore: ring region of %d bytes", len(mem))
	}
	f, err := uc.File()
	if err != nil {
		return nil, err
	}
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	up := ring{tail: word(mem, 64), head: word(mem, 128), parked: word(mem, 132), data: mem[ringHdr : ringHdr+size : ringHdr+size]}
	down := ring{tail: word(mem, 192), head: word(mem, 256), parked: word(mem, 260), data: mem[ringHdr+size:]}
	rc := &ringConn{sock: f, raw: raw, laddr: uc.LocalAddr(), raddr: uc.RemoteAddr(),
		mem: mem, in: down, out: up, unmap: unmap, doorbells: doorbells}
	if server {
		rc.in, rc.out = up, down
	}
	rc.bell = func(fd uintptr) bool {
		if ringBell(fd, doorbell[:]) && rc.doorbells != nil {
			rc.doorbells.Add(1)
		}
		return true
	}
	rc.wait = func(fd uintptr) bool {
		rc.bellN, rc.bellErr = ringWait(fd, rc.bellBuf[:])
		return rc.bellErr != syscall.EAGAIN
	}
	uc.Close()
	return rc, nil
}

func (rc *ringConn) enter() bool {
	if rc.users.Add(1)&closing != 0 {
		rc.exit()
		return false
	}
	return true
}

// exit leaves; the last one out of a closed ring unmaps it.
func (rc *ringConn) exit() {
	if rc.users.Add(-1) == closing && rc.unmapped.CompareAndSwap(false, true) && rc.unmap != nil {
		rc.unmap(rc.mem)
	}
}

// take copies what the peer has published into p.
func (rc *ringConn) take(p []byte) (int, error) {
	if rc.users.Load()&closing != 0 {
		return 0, net.ErrClosed
	}
	r := &rc.in
	size := uint32(len(r.data))
	tail := r.tail.Load()
	if tail-r.seen > r.pos+size-r.seen {
		rc.Close()
		return 0, errRingIndex
	}
	r.seen = tail
	n := min(tail-r.pos, uint32(min(len(p), ringSize)))
	if n == 0 {
		return 0, nil
	}
	off := r.pos & (size - 1)
	c := copy(p[:n], r.data[off:])
	copy(p[c:n], r.data)
	r.pos += n
	r.head.Store(r.pos)
	return int(n), nil
}

// put copies as much of p as fits into the ring — with whole, all of p
// or nothing — publishes it, and rings the doorbell if the peer's reader
// has parked.
func (rc *ringConn) put(p []byte, whole bool) (int, error) {
	if rc.users.Load()&closing != 0 {
		return 0, net.ErrClosed
	}
	r := &rc.out
	size := uint32(len(r.data))
	head := r.head.Load()
	if head-r.seen > r.pos-r.seen {
		rc.Close()
		return 0, errRingIndex
	}
	r.seen = head
	n := min(size-(r.pos-head), uint32(min(len(p), ringSize)))
	if n == 0 || whole && int(n) < len(p) {
		return 0, nil
	}
	off := r.pos & (size - 1)
	c := copy(r.data[off:], p[:n])
	copy(r.data, p[c:n])
	r.pos += n
	r.tail.Store(r.pos)
	if r.parked.Load() != 0 && r.parked.Swap(0) != 0 {
		rc.raw.Write(rc.bell)
	}
	return int(n), nil
}

// putAll publishes all of p or none of it and never waits: the server's
// flush (srvConn.flushLocked), which leaves what does not fit to the
// writer. It reports whether p went out.
func (rc *ringConn) putAll(p []byte) bool {
	if !rc.enter() {
		return false
	}
	n, err := rc.put(p, true)
	rc.exit()
	return err == nil && n == len(p)
}

// Read copies what the peer has written. On an empty ring a hot reader
// yields and looks again for spinFor — waking parked readers whose rings
// have filled while it is at it — then parks on the socket until a
// doorbell, a wake or the peer's EOF. A read deadline is the socket's,
// so it holds from the park on.
func (rc *ringConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if !rc.enter() {
		return 0, net.ErrClosed
	}
	defer rc.exit()
	if n, err := rc.take(p); n > 0 || err != nil {
		return n, err
	}
	start := time.Now()
	for now := start; rc.hot && now.Sub(start) < spinFor; now = time.Now() {
		runtime.Gosched()
		if sleepers.n.Load() > 0 {
			wakeSleepers()
		}
		if n, err := rc.take(p); n > 0 || err != nil {
			return n, err
		}
	}
	n, err := rc.park(p)
	rc.hot = time.Since(start) < spinFor
	return n, err
}

// park waits on the socket, in the sleepers set, until there is data: a
// doorbell or a wake sends it back to the ring, a socket error ends it.
func (rc *ringConn) park(p []byte) (n int, err error) {
	var serr error
	for n == 0 && err == nil && serr == nil {
		rc.sleep(true)
		rc.in.parked.Store(1)
		if n, err = rc.take(p); n == 0 && err == nil {
			if serr = rc.raw.Read(rc.wait); serr == nil {
				if serr = rc.bellErr; rc.bellN == 0 && serr == nil {
					serr = io.EOF
				}
			}
		}
		rc.sleep(false)
		if rc.kicked.Swap(false) {
			rc.sock.SetReadDeadline(rc.readDeadline())
			if errors.Is(serr, os.ErrDeadlineExceeded) {
				serr = nil
			}
		}
		if serr == syscall.EINTR {
			serr = nil
		}
	}
	rc.in.parked.Store(0)
	if serr != nil {
		// What the peer published before it went is still delivered.
		if n, err = rc.take(p); n == 0 && err == nil {
			err = serr
		}
	}
	return n, err
}

// sleep joins or leaves the sleepers set.
func (rc *ringConn) sleep(join bool) {
	sleepers.mu.Lock()
	if join {
		sleepers.set[rc] = struct{}{}
		sleepers.n.Add(1)
	} else {
		delete(sleepers.set, rc)
		sleepers.n.Add(-1)
	}
	sleepers.mu.Unlock()
}

// Write publishes p, waiting for room while the ring is full: it yields
// for spinFor, then polls at a backoff up to a millisecond, until the
// write deadline. A ring that stays full past it fails the write with
// os.ErrDeadlineExceeded, as a stalled socket write does.
func (rc *ringConn) Write(p []byte) (int, error) {
	if !rc.enter() {
		return 0, net.ErrClosed
	}
	defer rc.exit()
	done := 0
	var spinEnd time.Time
	backoff := time.Duration(0)
	for done < len(p) {
		n, err := rc.put(p[done:], false)
		if done += n; err != nil {
			return done, err
		}
		if n > 0 {
			spinEnd, backoff = time.Time{}, 0
			continue
		}
		now := time.Now()
		if dl := rc.wdl.Load(); dl != 0 && now.UnixNano() >= dl {
			return done, os.ErrDeadlineExceeded
		}
		switch {
		case spinEnd.IsZero():
			spinEnd = now.Add(spinFor)
		case now.Before(spinEnd):
			runtime.Gosched()
		default:
			backoff = min(max(2*backoff, 50*time.Microsecond), time.Millisecond)
			time.Sleep(backoff)
		}
	}
	return done, nil
}

// Close closes the socket, which ends a park at either end, and a spin
// here. The region is unmapped once nothing is inside.
func (rc *ringConn) Close() error {
	rc.users.Add(1)
	defer rc.exit()
	if rc.users.Or(closing)&closing != 0 {
		return net.ErrClosed
	}
	return rc.sock.Close()
}

func (rc *ringConn) LocalAddr() net.Addr  { return rc.laddr }
func (rc *ringConn) RemoteAddr() net.Addr { return rc.raddr }

func (rc *ringConn) SetDeadline(t time.Time) error {
	rc.SetWriteDeadline(t)
	return rc.SetReadDeadline(t)
}

func (rc *ringConn) SetReadDeadline(t time.Time) error {
	rc.rdl.Store(unixNano(t))
	return rc.sock.SetReadDeadline(t)
}

func (rc *ringConn) SetWriteDeadline(t time.Time) error {
	rc.wdl.Store(unixNano(t))
	return nil
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// readDeadline is the caller's read deadline, which a wake replaces on
// the socket for a moment.
func (rc *ringConn) readDeadline() time.Time {
	if ns := rc.rdl.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// sendHello writes the framed hello on nc. On a Unix socket that can
// share a region the frame carries one (ringOffer), and the mapping comes
// back for takeRing once the reply has been read; otherwise it is nil.
func sendHello(nc net.Conn, payload []byte) ([]byte, error) {
	if uc, ok := nc.(*net.UnixConn); ok {
		if mem, err := ringOffer(uc, payload); mem != nil || err != nil {
			return mem, err
		}
	}
	return nil, writeFrame(nc, payload)
}

// takeRing is the client's branch after a successful hello reply: the
// ring if the server marked the offered region accepted, else nc, the
// region unmapped. A region was offered only on a *net.UnixConn. An
// accepted ring the client cannot take fails the dial: the server reads
// nothing but doorbells from the socket now.
func takeRing(nc net.Conn, mem []byte) (net.Conn, error) {
	if word(mem, 0).Load() != ringAccepted {
		unmapRegion(mem)
		return nc, nil
	}
	rc, err := newRingConn(nc.(*net.UnixConn), mem, false, unmapRegion, nil)
	if err != nil {
		unmapRegion(mem)
		return nil, err
	}
	return rc, nil
}
