package apps

import (
	"testing"

	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

func mkHost(seed uint64) (*sim.Kernel, *hypervisor.Host) {
	k := sim.NewKernel()
	h := hypervisor.New(k, hypervisor.Config{}, stats.NewStream(seed, "host"))
	return k, h
}

func TestCassandraNodeReadAndUpdate(t *testing.T) {
	k, h := mkHost(1)
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	n := NewCassandraNode(rt.G, rt.G.Disks()[0], CassandraConfig{}, stats.NewStream(2, "node"))
	reads, writes := 0, 0
	var readTotal, writeTotal sim.Duration
	for i := 0; i < 50; i++ {
		start := k.Now()
		n.Read(i, func() { reads++; readTotal += k.Now() - start })
		n.Update(i, func() { writes++; writeTotal += k.Now() - start })
	}
	k.RunUntil(10 * sim.Second)
	if reads != 50 || writes != 50 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	// Updates are buffered commitlog appends: they must return much
	// faster than cache-missing reads on average.
	if writeTotal > readTotal {
		t.Fatalf("update mean %v ≥ read mean %v", writeTotal/50, readTotal/50)
	}
	// Updates dirtied the page cache.
	if c := rt.G.Disks()[0].Cache; c.DirtyPages() == 0 && c.WrittenBackBytes() == 0 {
		t.Fatal("commitlog writes missed the page cache")
	}
}

func TestCassandraClusterRoutesByKey(t *testing.T) {
	k, h := mkHost(3)
	var nodes []*CassandraNode
	for i := 0; i < 2; i++ {
		rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
		nodes = append(nodes, NewCassandraNode(rt.G, rt.G.Disks()[0], CassandraConfig{}, stats.NewStream(uint64(4+i), "n")))
	}
	cl := NewCassandraCluster(k, nodes, stats.NewStream(6, "cl"))
	done := 0
	served := map[*CassandraNode]int{}
	for i := 0; i < 100; i++ {
		// cl.Read's own route, counting which node serves the key.
		cl.route(i, func(n *CassandraNode, d func()) {
			n.Read(i, func() { served[n]++; d() })
		}, func() { done++ })
	}
	k.RunUntil(10 * sim.Second)
	if done != 100 {
		t.Fatalf("done = %d", done)
	}
	// Keys 50/50 split across the two nodes.
	c0, c1 := served[nodes[0]], served[nodes[1]]
	if c0 != 50 || c1 != 50 {
		t.Fatalf("shard counts %d/%d, want 50/50", c0, c1)
	}
}

func TestCassandraSingleNodeNoNetworkHop(t *testing.T) {
	k, h := mkHost(7)
	rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
	n := NewCassandraNode(rt.G, rt.G.Disks()[0], CassandraConfig{RowCacheHit: 1e-9}, stats.NewStream(8, "n"))
	cl := NewCassandraCluster(k, []*CassandraNode{n}, stats.NewStream(9, "cl"))
	var at sim.Time
	cl.Read(1, func() { at = k.Now() })
	k.RunUntil(sim.Second)
	if at == 0 {
		t.Fatal("read lost")
	}
}

func TestOlioRequestTraversesTiers(t *testing.T) {
	k, h := mkHost(10)
	mkG := func() *guest.Guest {
		rt := h.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 4 << 30})
		return rt.G
	}
	o := NewOlio(k, mkG(), mkG(), mkG(), stats.NewStream(11, "olio"))
	done := 0
	for i := 0; i < 30; i++ {
		o.Request(func() { done++ })
	}
	k.RunUntil(sim.Minute)
	if done != 30 {
		t.Fatalf("done = %d/30", done)
	}
	if o.WebLatency().Count() != 30 {
		t.Fatalf("web latencies = %d", o.WebLatency().Count())
	}
	if o.DBLatency().Count() == 0 {
		t.Fatal("no DB queries recorded")
	}
	if o.FSLatency().Count() == 0 {
		t.Fatal("no file-server ops recorded")
	}
	// End-to-end includes PHP render: mean should be several ms.
	if o.WebLatency().Mean() < 2*sim.Millisecond {
		t.Fatalf("web mean = %v, implausibly fast", o.WebLatency().Mean())
	}
	// Tiers are cheaper than the whole.
	if o.DBLatency().Mean() >= o.WebLatency().Mean() {
		t.Fatal("db tier slower than end-to-end")
	}
}

func TestBlastJobPartitionsAndCompletes(t *testing.T) {
	k, h := mkHost(12)
	var guests []*guest.Guest
	for i := 0; i < 4; i++ {
		rt := h.CreateGuest(guest.Config{VCPUs: 1, MemBytes: 2 << 30})
		guests = append(guests, rt.G)
	}
	job := NewBlastJob(k, guests, 256<<20, false, stats.NewStream(13, "blast"))
	finished := false
	job.OnDone = func() { finished = true }
	job.Start()
	k.RunUntil(5 * sim.Minute)
	if !finished {
		t.Fatal("job never completed")
	}
	// 256 MiB / 4 workers / 4 MiB chunks = 16 chunks per worker.
	for i, w := range job.Workers() {
		if got := w.Ops().Completed(); got != 16 {
			t.Fatalf("worker %d chunks = %d, want 16", i, got)
		}
	}
	if job.ChunkLatency().Count() != 64 {
		t.Fatalf("merged latency count = %d", job.ChunkLatency().Count())
	}
}
