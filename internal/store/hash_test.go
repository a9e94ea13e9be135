package store

import (
	"strings"
	"testing"
)

// TestMixStringSeesEveryByte: at every length on both sides of the
// four-lane threshold, changing any one byte changes the hash, and a
// byte moved across the path/value separator does too.
func TestMixStringSeesEveryByte(t *testing.T) {
	buf := make([]byte, 96)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	for n := 0; n <= len(buf); n++ {
		base := mixString(1, string(buf[:n]))
		for i := 0; i < n; i++ {
			for _, flip := range []byte{1, 0x80} {
				buf[i] ^= flip
				if mixString(1, string(buf[:n])) == base {
					t.Errorf("length %d: flipping bit %#x of byte %d leaves the hash unchanged", n, flip, i)
				}
				buf[i] ^= flip
			}
		}
		if n > 0 && mixString(1, string(buf[:n-1])) == base {
			t.Errorf("lengths %d and %d hash alike", n-1, n)
		}
	}
	// One run of a single byte value, cut into path and value at every
	// point: only the lengths tell two cuts apart.
	whole := "/" + strings.Repeat("x", 99)
	seen := map[uint64]int{}
	for cut := 1; cut <= len(whole); cut++ {
		h := nodeHash(whole[:cut], whole[cut:])
		if other, dup := seen[h]; dup {
			t.Errorf("%d+%d and %d+%d bytes of one run hash alike across the separator", other, len(whole)-other, cut, len(whole)-cut)
		}
		seen[h] = cut
	}
}

// BenchmarkMixString256 hashes the hot path's written value: 256 bytes,
// once per write.
func BenchmarkMixString256(b *testing.B) {
	v := strings.Repeat("0123456789abcdef", 16)
	h := uint64(1)
	for b.Loop() {
		h = mixString(h, v)
	}
	sinkHash = h
}

var sinkHash uint64
