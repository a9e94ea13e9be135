package workload

import (
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
)

// KV is the key-value surface YCSB drives (implemented by the Cassandra
// model in internal/apps).
type KV interface {
	// Read fetches a record; done fires when the value is available.
	Read(key int, done func())
	// Update writes a record; done fires when the store acknowledges.
	Update(key int, done func())
}

// YCSBConfig describes a core workload.
type YCSBConfig struct {
	// ReadFrac is the read proportion: 0.5 for YCSB1 (workload A,
	// update-heavy), 0.95 for YCSB2 (workload B, read-mostly).
	ReadFrac float64
	// Records is the keyspace size (default 1e6).
	Records int
}

// ycsbTheta is the zipfian skew (the YCSB standard).
const ycsbTheta = 0.99

// YCSB1 is the update-heavy core workload (read:write 50:50).
func YCSB1() YCSBConfig { return YCSBConfig{ReadFrac: 0.5} }

// YCSB2 is the read-mostly core workload (read:write 95:5).
func YCSB2() YCSBConfig { return YCSBConfig{ReadFrac: 0.95} }

func (c *YCSBConfig) fillDefaults() {
	if c.Records <= 0 {
		c.Records = 1 << 20
	}
	if c.ReadFrac <= 0 {
		c.ReadFrac = 0.5
	}
}

// YCSBOp builds an Operation closure issuing one zipfian-keyed op against
// kv per invocation; plug it into OpenLoop, ClosedLoop or Bursty.
func YCSBOp(cfg YCSBConfig, kv KV, rng *stats.Stream) Operation {
	cfg.fillDefaults()
	zipf := stats.NewZipf(rng.Fork("zipf"), cfg.Records, ycsbTheta)
	return func(done func()) {
		key := zipf.ScrambledNext()
		if rng.Float64() < cfg.ReadFrac {
			kv.Read(key, done)
		} else {
			kv.Update(key, done)
		}
	}
}

// YCSBRun couples a config, generator and recorder for convenience.
type YCSBRun struct {
	Gen interface {
		Start()
		Stop()
	}
	Rec *Recorder
}

// NewYCSBOpenLoop builds an open-loop YCSB run at rate ops/s.
func NewYCSBOpenLoop(k *sim.Kernel, cfg YCSBConfig, kv KV, rate float64, limit uint64, rng *stats.Stream) *YCSBRun {
	gen := NewOpenLoop(k, rate, limit, YCSBOp(cfg, kv, rng.Fork("op")), rng.Fork("gen"))
	return &YCSBRun{Gen: gen, Rec: gen.Recorder()}
}

// NewYCSBBursty builds a bursty YCSB run (Sec. 5.6): average rate with
// 10× synchronized bursts of burstLen per period.
func NewYCSBBursty(k *sim.Kernel, cfg YCSBConfig, kv KV, rate float64,
	burstLen, period sim.Duration, limit uint64, rng *stats.Stream) *YCSBRun {
	gen := NewBursty(k, rate, burstLen, period, limit, YCSBOp(cfg, kv, rng.Fork("op")), rng.Fork("gen"))
	return &YCSBRun{Gen: gen, Rec: gen.Recorder()}
}
