package netstore

// A reply's count field sizes an allocation and a loop on the client, so
// it is bounded by what the reply's body could hold before it is
// believed (rdec.count). These tests play the peer that lies about it.

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"iorchestra/internal/store"
)

// lyingPeer is a Client whose server answers the hello honestly and
// every request after it with an OK reply carrying body.
func lyingPeer(t *testing.T, body []byte) *Client {
	t.Helper()
	cli, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	go func() {
		for first := true; ; first = false {
			req, err := readFrame(peer)
			if err != nil || len(req) < replyHdr {
				return
			}
			e := replyTo(binary.BigEndian.Uint32(req[1:]), nil)
			if first {
				e.u8(ProtocolVersion).u64(0)
			} else {
				e.b = append(e.b, body...)
			}
			if writeFrame(peer, e.b) != nil {
				return
			}
		}
	}()
	c, err := NewClient(cli, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestOversizedReplyCountsRefused(t *testing.T) {
	const huge = 1<<32 - 1
	base := store.DomainPath(3)
	list := func(c *Client) error { _, err := c.List(base); return err }
	sync := func(c *Client) error { _, err := c.SyncSubtree(base, 0, 0); return err }
	batch := func(c *Client) error { _, err := c.NewBatch().Read(base).List(base).List(base).Run(); return err }
	okSub := func(e *enc) *enc { return e.u8(0).str("") }
	cases := []struct {
		name string
		call func(*Client) error
		body *enc
	}{
		{"list, count of 4 billion", list, (&enc{}).u32(huge)},
		{"list, count past a truncated body", list, (&enc{}).u32(1000).str("a").str("b").str("c")},
		{"list, count one more than the names sent", list, (&enc{}).u32(3).str("").str("")},
		{"sync, count of 4 billion", sync, (&enc{}).u8(uint8(store.SyncFull)).u64(7).u64(9).u32(huge)},
		{"batch, result count of 4 billion", batch, (&enc{}).u32(huge)},
		{"batch, list count of 4 billion", batch, okSub(okSub((&enc{}).u32(3)).str("v")).u32(huge)},
		{"batch, list count past a truncated body", batch, okSub(okSub((&enc{}).u32(3)).str("v")).u32(64).str("a")},
		{"batch, truncated after the first result", batch, okSub((&enc{}).u32(3)).str("v")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := lyingPeer(t, tc.body.b)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			err := tc.call(c)
			took := time.Since(start)
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("got %v, want ErrBadRequest", err)
			}
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
				t.Errorf("refusing the reply allocated %d bytes", grew)
			}
			if took > time.Second {
				t.Errorf("refusing the reply took %v", took)
			}
			if err := c.Err(); err != nil {
				t.Errorf("one bad reply killed the connection: %v", err)
			}
		})
	}
	// The bound is exact: a body that holds what it announces decodes.
	c := lyingPeer(t, (&enc{}).strs([]string{"", "a", ""}).b)
	if names, err := c.List(base); err != nil || !reflect.DeepEqual(names, []string{"", "a", ""}) {
		t.Errorf("a list of three names, two of them empty: %q, %v", names, err)
	}
}

// FuzzReplyComposites drives the client's two composite reply decoders
// — a List's names, a batch's results — over
// arbitrary bodies against a reference that walks the body with the
// copying decoder, one bounds check at a time: same values or both fail,
// and a names slice is never sized past what the body could hold.
func FuzzReplyComposites(f *testing.F) {
	okSub := func(e *enc) *enc { return e.u8(0).str("") }
	kinds := []byte{0, 1, 1, 2, 3} // read, list, list, remove, write
	good := okSub(okSub(okSub(okSub(okSub(&enc{}).str("value")).strs([]string{"a", "bc"})).strs(nil)))
	f.Add(string((&enc{}).strs([]string{"a", "", "ccc"}).b), kinds)
	f.Add(string((&enc{}).u32(2).str("/p").str("v").str("/q").str("").b), kinds)
	f.Add(string(good.b), kinds)
	f.Add(string(good.b[:len(good.b)-3]), kinds)
	f.Add(string((&enc{}).u8(uint8(StatusNoEntry)).str("gone").b)+string(good.b), kinds)
	f.Add("\xff\xff\xff\xff", kinds)
	f.Add("\x00\x00\x00\x00\x00\xff\xff\xff\xff", []byte{1})
	f.Add("", []byte{})

	f.Fuzz(func(t *testing.T, body string, kinds []byte) {
		// names
		d, ref := rdec{s: body}, dec{b: []byte(body)}
		names := d.names()
		var want []string
		for n := ref.u32(); n > 0 && ref.err == nil; n-- {
			want = append(want, ref.str())
		}
		if cap(names) > len(body)/4 {
			t.Fatalf("names sized for %d in a %d-byte body", cap(names), len(body))
		}
		if (d.err == nil) != (ref.err == nil) || d.err == nil && (len(names) != len(want) || len(want) > 0 && !reflect.DeepEqual(names, want)) {
			t.Fatalf("names = %q, %v; reference %q, %v", names, d.err, want, ref.err)
		}

		// results
		if len(kinds) > 64 {
			kinds = kinds[:64]
		}
		ops := make([]req, len(kinds))
		for i, k := range kinds {
			ops[i].op = []Op{OpRead, OpList, OpRemove, OpWrite}[k%4]
		}
		d, ref = rdec{s: body}, dec{b: []byte(body)}
		res := make([]BatchResult, len(ops))
		d.results(ops, res)
		for i := range ops {
			if ref.err != nil {
				break
			}
			var w BatchResult
			if st, msg := Status(ref.u8()), ref.str(); st != StatusOK {
				w.Err = errOf(st, msg)
			} else {
				switch ops[i].op {
				case OpRead:
					w.Value = ref.str()
				case OpList:
					for n := ref.u32(); n > 0 && ref.err == nil; n-- {
						w.Names = append(w.Names, ref.str())
					}
				}
			}
			if ref.err != nil {
				break
			}
			got := res[i]
			if (got.Err == nil) != (w.Err == nil) || got.Err != nil && got.Err.Error() != w.Err.Error() ||
				got.Value != w.Value || len(got.Names) != len(w.Names) ||
				len(w.Names) > 0 && !reflect.DeepEqual(got.Names, w.Names) {
				t.Fatalf("result %d (%v) = %+v, reference %+v", i, ops[i].op, got, w)
			}
		}
		if (d.err == nil) != (ref.err == nil) {
			t.Fatalf("results: %v, reference %v", d.err, ref.err)
		}
	})
}
