package netstore

// The Linux half of the ring transport (ring.go): the region a client
// offers (a sealed memfd, mapped shared, its descriptor sent with the
// hello by SCM_RIGHTS), the server's checks before it maps one, and the
// doorbell. Elsewhere ring_other.go offers nothing and accepts nothing,
// and every peer stays on its socket.

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// memfdCreate is memfd_create(2)'s number where this package knows it
// (x86-64's table and the generic one); the syscall package predates the
// call. Zero: a client offers no ring, though the server still takes one.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279, "riscv64": 279, "loong64": 279}[runtime.GOARCH]

const (
	mfdCloexec      = 0x1
	mfdAllowSealing = 0x2
	fAddSeals       = 1033
	fGetSeals       = 1034
	fSealSeal       = 0x1
	fSealShrink     = 0x2
	fSealGrow       = 0x4
)

// ringOffer makes a region and sends the framed hello with its
// descriptor, then maps the region while the server reads the hello. It
// returns no mapping and no error when no region can be made, and the
// caller sends the hello plain; once the offer is out, a region it
// cannot map fails the dial.
func ringOffer(uc *net.UnixConn, payload []byte) ([]byte, error) {
	fd := newRegion()
	if fd < 0 {
		return nil, nil
	}
	defer syscall.Close(fd)
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	frame = append(frame, payload...)
	n, _, err := uc.WriteMsgUnix(frame, syscall.UnixRights(fd), nil)
	if err == nil && n != len(frame) {
		err = syscall.EIO
	}
	if err != nil {
		return nil, err
	}
	mem, err := mapRegion(fd)
	if err != nil {
		return nil, err
	}
	// Fault in, while the server works, the pages the first frames touch:
	// the header and each ring's first page.
	for _, off := range [...]int{0, ringHdr, ringHdr + ringSize} {
		word(mem, off).Load()
	}
	return mem, nil
}

// newRegion creates the memfd a client offers, sealed so that it can
// neither shrink nor grow: a mapping of it never faults past its end.
func newRegion() int {
	if memfdCreate == 0 {
		return -1
	}
	name := [...]byte{'n', 'e', 't', 's', 't', 'o', 'r', 'e', 0}
	r, _, errno := syscall.Syscall(memfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return -1
	}
	fd := int(r)
	if syscall.Ftruncate(fd, regionSize) != nil || fcntl(fd, fAddSeals, fSealShrink|fSealGrow|fSealSeal) != nil {
		syscall.Close(fd)
		return -1
	}
	return fd
}

func mapRegion(fd int) ([]byte, error) {
	return syscall.Mmap(fd, 0, regionSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

func fcntl(fd, cmd, arg int) error {
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg)); errno != 0 {
		return errno
	}
	return nil
}

// isRegion reports whether an offered descriptor is a region: a regular
// file of exactly regionSize bytes, sealed against shrinking (a peer that
// could truncate it would fault this process).
func isRegion(fd int) bool {
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) != nil || st.Mode&syscall.S_IFMT != syscall.S_IFREG || st.Size != regionSize {
		return false
	}
	seals, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), fGetSeals, 0)
	return errno == 0 && seals&fSealShrink != 0
}

func unmapRegion(mem []byte) error { return syscall.Munmap(mem) }

// ringBell writes b to the socket without waiting: a full socket already
// holds a doorbell the peer has not read.
func ringBell(fd uintptr, b []byte) bool {
	n, _ := syscall.Write(int(fd), b)
	return n == len(b)
}

// ringWait reads the doorbells waiting on the socket into b, without
// waiting: EAGAIN says there are none.
func ringWait(fd uintptr, b []byte) (int, error) { return syscall.Read(int(fd), b) }

// offer reads a Unix peer's hello with recvmsg and keeps the descriptors
// that come with it.
type offer struct {
	uc  *net.UnixConn
	fds []int
}

func newOffer(c net.Conn) *offer {
	if uc, ok := c.(*net.UnixConn); ok {
		return &offer{uc: uc}
	}
	return nil
}

func (o *offer) Read(p []byte) (int, error) {
	var oob [64]byte // two descriptors' room: more is a bad offer either way
	n, oobn, _, _, err := o.uc.ReadMsgUnix(p, oob[:])
	if msgs, perr := syscall.ParseSocketControlMessage(oob[:oobn]); perr == nil {
		for i := range msgs {
			if fds, rerr := syscall.ParseUnixRights(&msgs[i]); rerr == nil {
				o.fds = append(o.fds, fds...)
			}
		}
	}
	return n, err
}

// accept marks the region accepted if the hello carried exactly one
// descriptor and it is one. It writes the accepted word through the
// descriptor, so the reply can go out before the region is mapped (ring).
func (o *offer) accept() bool {
	if len(o.fds) != 1 || !isRegion(o.fds[0]) {
		return false
	}
	var w [4]byte
	binary.NativeEndian.PutUint32(w[:], ringAccepted)
	n, err := syscall.Pwrite(o.fds[0], w[:], 0)
	return err == nil && n == len(w)
}

// ring maps the accepted region: the server's end of the connection from
// here on.
func (o *offer) ring(doorbells *atomic.Uint64) (*ringConn, error) {
	mem, err := mapRegion(o.fds[0])
	if err != nil {
		return nil, err
	}
	rc, err := newRingConn(o.uc, mem, true, unmapRegion, doorbells)
	if err != nil {
		unmapRegion(mem)
	}
	return rc, err
}

// close closes every descriptor the hello brought; a mapping outlives
// its descriptor.
func (o *offer) close() {
	for _, fd := range o.fds {
		syscall.Close(fd)
	}
	o.fds = nil
}
