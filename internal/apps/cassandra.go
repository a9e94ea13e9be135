// Package apps models the distributed applications of the paper's
// evaluation on top of guest VMs: a Cassandra-style key-value store
// (driven by YCSB), the three-tier Olio social-events application (driven
// by CloudStone-style clients), and mpiBLAST scan jobs.
package apps

import (
	"iorchestra/internal/guest"
	"iorchestra/internal/metrics"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// NetLatency is the one-way inter-VM network latency (same rack).
const NetLatency = 100 * sim.Microsecond

// CassandraConfig tunes the node model.
type CassandraConfig struct {
	// RowCacheHit is the fraction of reads served from the row cache
	// (default 0.30).
	RowCacheHit float64
}

const (
	// cassReadCPUTime is coordinator+row-materialization compute per
	// read: bloom filters and JVM overheads put the real read path on
	// the order of 100 µs of CPU.
	cassReadCPUTime = 220 * sim.Microsecond
	// cassWriteCPUTime is memtable-insert compute per update.
	cassWriteCPUTime = 120 * sim.Microsecond
	// cassRowBytes is the on-disk row size read per miss.
	cassRowBytes = 8 << 10
	// cassCommitBytes is the commitlog append per update.
	cassCommitBytes = 8 << 10
	// cassTwoSeekFrac of row-cache misses hit two SSTables instead of one.
	cassTwoSeekFrac = 0.25
	// cassMemtableBytes of accumulated updates trigger a memtable flush
	// (a large buffered sequential SSTable write).
	cassMemtableBytes int64 = 8 << 20
	// cassCompactEvery SSTable flushes trigger a compaction: read
	// cassCompactEvery×cassMemtableBytes sequentially, write the same
	// amount back.
	cassCompactEvery = 4
	// cassCompactChunk paces flush and compaction I/O.
	cassCompactChunk int64 = 1 << 20
)

// CassandraNode models one data node: reads hit the row cache or one/two
// SSTable seeks; updates append to the commitlog (buffered, periodic
// sync — the write-buffering that makes YCSB1 flush-sensitive) and insert
// into the memtable. Memtable flush pressure emerges from the page cache.
type CassandraNode struct {
	k   *sim.Kernel
	g   *guest.Guest
	d   *guest.VDisk
	cfg CassandraConfig
	rng *stats.Stream
	// procs is the request-stage pool (concurrent_reads/writes style);
	// ops round-robin across it so one slow op does not serialize the node.
	procs []*guest.Process
	pi    int

	readLat  *metrics.Histogram
	writeLat *metrics.Histogram

	// Background write machinery: memtable bytes since the last flush,
	// SSTable count since the last compaction, and a dedicated flush
	// process (Cassandra's flush-writer/compactor threads).
	memtable   int64
	sstables   int
	bg         *guest.Process
	compacting bool
}

// NewCassandraNode builds a node on guest g's disk d.
func NewCassandraNode(k *sim.Kernel, g *guest.Guest, d *guest.VDisk, cfg CassandraConfig, rng *stats.Stream) *CassandraNode {
	if cfg.RowCacheHit <= 0 {
		cfg.RowCacheHit = 0.30
	}
	n := &CassandraNode{
		k: k, g: g, d: d, cfg: cfg, rng: rng,
		bg:       g.NewProcess(1),
		readLat:  metrics.NewHistogram(),
		writeLat: metrics.NewHistogram(),
	}
	for i := 0; i < 4; i++ {
		n.procs = append(n.procs, g.NewProcess(1))
	}
	return n
}

func (n *CassandraNode) next() *guest.Process {
	n.pi++
	return n.procs[n.pi%len(n.procs)]
}

// ReadLatency and WriteLatency expose node-local service histograms.
func (n *CassandraNode) ReadLatency() *metrics.Histogram { return n.readLat }

// WriteLatency exposes the node-local update histogram.
func (n *CassandraNode) WriteLatency() *metrics.Histogram { return n.writeLat }

// Read implements the node-local read path.
func (n *CassandraNode) Read(key int, done func()) {
	start := n.k.Now()
	finish := func() {
		n.readLat.Record(n.k.Now() - start)
		if done != nil {
			done()
		}
	}
	p := n.next()
	p.Compute(cassReadCPUTime, func() {
		if n.rng.Float64() < n.cfg.RowCacheHit {
			finish()
			return
		}
		n.d.Read(p, cassRowBytes, false, func() {
			if n.rng.Float64() < cassTwoSeekFrac {
				n.d.Read(p, cassRowBytes, false, finish)
			} else {
				finish()
			}
		})
	})
}

// Update implements the node-local write path: commitlog append plus
// memtable insert; crossing the memtable threshold schedules an SSTable
// flush, and every cassCompactEvery flushes schedule a compaction — the
// write-amplification that makes YCSB1 flush-coordination-sensitive.
func (n *CassandraNode) Update(key int, done func()) {
	start := n.k.Now()
	p := n.next()
	p.Compute(cassWriteCPUTime, func() {
		n.d.Write(p, cassCommitBytes, func() {
			n.writeLat.Record(n.k.Now() - start)
			if done != nil {
				done()
			}
		})
		n.memtable += cassCommitBytes
		if n.memtable >= cassMemtableBytes {
			n.memtable = 0
			n.flushSSTable()
		}
	})
}

// flushSSTable writes one memtable's worth of data as a buffered
// sequential SSTable, in paced chunks on the background process.
func (n *CassandraNode) flushSSTable() {
	remaining := cassMemtableBytes
	var step func()
	step = func() {
		if remaining <= 0 {
			n.sstables++
			if n.sstables >= cassCompactEvery && !n.compacting {
				n.sstables = 0
				n.compact()
			}
			return
		}
		chunk := cassCompactChunk
		if remaining < chunk {
			chunk = remaining
		}
		remaining -= chunk
		n.d.Write(n.bg, chunk, step)
	}
	step()
}

// compact streams cassCompactEvery SSTables through the node: sequential
// reads followed by an equal volume of buffered sequential writes.
func (n *CassandraNode) compact() {
	n.compacting = true
	total := cassCompactEvery * cassMemtableBytes
	readLeft, writeLeft := total, total
	var step func()
	step = func() {
		switch {
		case readLeft > 0:
			chunk := cassCompactChunk
			if readLeft < chunk {
				chunk = readLeft
			}
			readLeft -= chunk
			n.d.Read(n.bg, chunk, true, step)
		case writeLeft > 0:
			chunk := cassCompactChunk
			if writeLeft < chunk {
				chunk = writeLeft
			}
			writeLeft -= chunk
			n.d.Write(n.bg, chunk, step)
		default:
			n.compacting = false
		}
	}
	step()
}

// CassandraCluster shards keys across nodes and adds inter-node network
// latency for remote coordination; it implements workload.KV.
type CassandraCluster struct {
	k     *sim.Kernel
	nodes []*CassandraNode
	rng   *stats.Stream
}

// NewCassandraCluster groups nodes into one logical store.
func NewCassandraCluster(k *sim.Kernel, nodes []*CassandraNode, rng *stats.Stream) *CassandraCluster {
	if len(nodes) == 0 {
		panic("apps: empty cassandra cluster")
	}
	return &CassandraCluster{k: k, nodes: nodes, rng: rng}
}

// route picks the replica for a key and wraps done with network RTT when
// the coordinator (random) is not the replica.
func (c *CassandraCluster) route(key int, op func(n *CassandraNode, done func()), done func()) {
	replica := c.nodes[key%len(c.nodes)]
	if len(c.nodes) == 1 {
		op(replica, done)
		return
	}
	coordinator := c.rng.Intn(len(c.nodes))
	if c.nodes[coordinator] == replica {
		op(replica, done)
		return
	}
	// Forward hop, remote service, reply hop.
	c.k.After(NetLatency, func() {
		op(replica, func() {
			c.k.After(NetLatency, done)
		})
	})
}

// Read implements workload.KV.
func (c *CassandraCluster) Read(key int, done func()) {
	c.route(key, func(n *CassandraNode, d func()) { n.Read(key, d) }, done)
}

// Update implements workload.KV.
func (c *CassandraCluster) Update(key int, done func()) {
	c.route(key, func(n *CassandraNode, d func()) { n.Update(key, d) }, done)
}
