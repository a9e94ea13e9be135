//go:build !linux

package netstore

// Without the Linux half (ring_linux.go) a client offers no ring and a
// server accepts none: every peer stays on its socket.

import (
	"net"
	"sync/atomic"
)

func ringOffer(*net.UnixConn, []byte) ([]byte, error) { return nil, nil }
func unmapRegion([]byte) error                        { return nil }
func ringBell(uintptr, []byte) bool                   { return false }
func ringWait(uintptr, []byte) (int, error)           { return 0, net.ErrClosed }

type offer struct{ net.Conn }

func newOffer(net.Conn) *offer                        { return nil }
func (*offer) accept() bool                           { return false }
func (*offer) ring(*atomic.Uint64) (*ringConn, error) { return nil, net.ErrClosed }
func (*offer) close()                                 {}
