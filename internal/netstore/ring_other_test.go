//go:build !linux

package netstore

// Without the Linux half of the ring transport (ring_other.go) no
// connection is on a ring, and the tests that want one go without.

import (
	"net"
	"testing"
)

func ringTo(testing.TB, *Server, int) net.Conn { return nil }
