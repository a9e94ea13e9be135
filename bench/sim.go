package main

import (
	"fmt"
	"sort"
	"time"

	"iorchestra"
	"iorchestra/internal/blkio"
	"iorchestra/internal/cluster"
	"iorchestra/internal/core"
	"iorchestra/internal/device"
	"iorchestra/internal/guest"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/metrics"
	"iorchestra/internal/pagecache"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// writerSpec is the per-guest bursty dirtying writer of flush_burst_1k
// and scale_10k_50h: sim-bench's shape (a burst of fixed-size buffered
// writes, then a pause Algorithm 1 needs to find the guest settled),
// re-sized so the array is busy about half the time instead of being
// offered a hundred times its capacity.
type writerSpec struct {
	WriteBytes  int64 `json:"write_bytes"`
	IntervalMS  int64 `json:"interval_ms"`
	BurstWrites int   `json:"burst_writes"`
	PauseMS     int64 `json:"pause_ms"`
	// PrefillMB: each guest's first write dirties uniform(0, PrefillMB)
	// MiB, so the argmax cycle (one guest flushed per idle window — some
	// hundred simulated seconds for a thousand guests) starts near its
	// equilibrium instead of an empty cache.
	PrefillMB int64 `json:"prefill_mb"`
	// ProbeEvery: every n-th guest also runs a latency probe (4 KiB
	// random reads with exponential gaps, ProbeHz per second).
	ProbeEvery int     `json:"probe_every"`
	ProbeHz    float64 `json:"probe_hz"`
}

// simSpec sizes one sim workload. SimSecPerSecond fixes the measured
// simulated span: span = --seconds × SimSecPerSecond, calibrated so the
// span takes about --seconds of wall time on the reference box; the work
// is therefore identical on every commit.
type simSpec struct {
	Guests          int   `json:"guests"`
	Hosts           int   `json:"hosts"`
	SimSecPerSecond int   `json:"sim_s_per_second"`
	WarmupSimS      int   `json:"warmup_sim_s"`
	DrainSimS       int   `json:"drain_sim_s"`
	EpochMS         int64 `json:"epoch_ms,omitempty"`
	// SetupReps is how many times a pass builds the bed; setup_s is the
	// median set-up time (build plus setupSettle).
	SetupReps int        `json:"setup_reps"`
	Writer    writerSpec `json:"writer,omitempty"`
	Mix       *mixSpec   `json:"mix,omitempty"`
}

// mixSpec sizes congest_numa_mix: Fig. 9's small-ring FileBench-FS guests
// over a dispatch path narrow enough that the array is the bottleneck
// whenever several guests burst together, plus Fig. 10a's cross-socket VM.
type mixSpec struct {
	FSThreads    int   `json:"fs_threads"`
	FSMeanFileKB int64 `json:"fs_mean_file_kb"`
	FSThinkUS    int64 `json:"fs_think_us"`
	// Guest i bursts for FSBurstOnMS + i·FSBurstOnStepMS and rests for
	// FSBurstOffMS + i·FSBurstOffStepMS. With one period for all, the
	// phase alignment the seed happens to draw would last the whole span
	// and decide the result; unequal periods sweep through every alignment.
	FSBurstOnMS       int64   `json:"fs_burst_on_ms"`
	FSBurstOnStepMS   int64   `json:"fs_burst_on_step_ms"`
	FSBurstOffMS      int64   `json:"fs_burst_off_ms"`
	FSBurstOffStepMS  int64   `json:"fs_burst_off_step_ms"`
	RingLimit         int     `json:"ring_limit"`
	RingWindow        int     `json:"ring_window"`
	MaxTransferKB     int64   `json:"max_transfer_kb"`
	MaxDeviceInFlight int     `json:"max_device_in_flight"`
	BigVCPUs          int     `json:"big_vcpus"`
	BigStreams        int     `json:"big_streams"`
	BigFileMB         int64   `json:"big_file_mb"`
	IOCoreCostUS      int64   `json:"iocore_cost_us"`
	IOCoreBps         float64 `json:"iocore_bps"`
	ProbeHz           float64 `json:"probe_hz"`
}

// variant selects what is installed on an otherwise identical bed: the
// measured configuration is IOrchestra with every paper policy; the
// reference runs swap the system (model.gain_pct), drop the policies
// (core.policy_wall_share) or switch the product recorder on.
type variant struct {
	sys   iorchestra.System
	pol   core.Policies
	trace bool
}

var measured = variant{sys: iorchestra.SystemIOrchestra, pol: core.All()}

// hostGen is the harness-owned load generator state of one host. Only
// that host's kernel goroutine touches it while the kernels run; the
// harness reads it between RunEpochs calls, which order the accesses.
type hostGen struct {
	stopped bool
	issued  uint64 // generator operations started (writes and probes)
	probed  uint64 // probe reads completed
	winLo   sim.Time
	winHi   sim.Time
	samples []float64 // probe latencies (simulated µs) issued in [winLo, winHi)
}

// simBed is one constructed sim scenario.
type simBed struct {
	kernels  []*sim.Kernel
	hosts    []*hypervisor.Host
	managers []*core.Manager // nil entries when the system installs none
	gens     []*hostGen
	disks    []*guest.VDisk
	epoch    sim.Duration
	// personalities are product generators (congest_numa_mix); the writer
	// workloads drive guests with harness-owned closures instead.
	personalities []workload.Personality
	cpu           *workload.CPUBound
	pair          []*pairing // per host; traced variants only
}

func (b *simBed) runUntil(t sim.Time) { cluster.RunEpochs(b.kernels, t, b.epoch, nil) }

func (b *simBed) executed() uint64 {
	var n uint64
	for _, k := range b.kernels {
		n += k.Executed()
	}
	return n
}

// ops reports generator operations started and completed: harness writes
// (completion read from the disks' write-return histograms), harness
// probe reads, and the product personalities' own recorders.
func (b *simBed) ops() (started, completed uint64) {
	for _, g := range b.gens {
		started += g.issued
		completed += g.probed
	}
	if len(b.personalities) == 0 {
		for _, d := range b.disks {
			completed += d.WriteLatency().Count()
		}
	}
	for _, p := range b.personalities {
		started += p.Ops().Started()
		completed += p.Ops().Completed()
	}
	if b.cpu != nil {
		started += b.cpu.Ops().Started()
		completed += b.cpu.Ops().Completed()
	}
	return started, completed
}

func (b *simBed) stop() {
	for _, g := range b.gens {
		g.stopped = true
	}
	for _, p := range b.personalities {
		p.Stop()
	}
	if b.cpu != nil {
		b.cpu.Stop()
	}
}

// counters sums the management-module counters over hosts.
func (b *simBed) counters() core.Counters {
	var c core.Counters
	for _, m := range b.managers {
		if m == nil {
			continue
		}
		x := m.Counters()
		c.FlushNotices += x.FlushNotices
		c.FlushTimeouts += x.FlushTimeouts
		c.Vetoes += x.Vetoes
		c.Confirms += x.Confirms
		c.Relieves += x.Relieves
		c.ReleaseTimeouts += x.ReleaseTimeouts
		c.HoldTimeouts += x.HoldTimeouts
		c.CoschedRuns += x.CoschedRuns
		c.Fallbacks += x.Fallbacks
	}
	return c
}

// arrayStats reads the shared arrays' lifetime counters through the
// public member accessors (every bed uses RAID0-of-SSD arrays).
func (b *simBed) arrayStats() (bytes float64, reqs uint64, svc *metrics.Histogram) {
	svc = metrics.NewHistogram()
	for _, h := range b.hosts {
		arr, ok := h.Device().(*device.RAID0)
		if !ok {
			continue
		}
		for _, m := range arr.Members() {
			if ssd, ok := m.(*device.SSD); ok {
				bytes += ssd.BytesMoved()
				reqs += ssd.Completed()
				svc.Merge(ssd.ServiceLatency())
			}
		}
	}
	return bytes, reqs, svc
}

// busySeconds is Σ_hosts util·now, whose deltas give the mean device
// utilisation over a window from the cumulative busy fraction.
func (b *simBed) busySeconds() float64 {
	var s float64
	for i, h := range b.hosts {
		now := b.kernels[i].Now()
		s += h.Device().UtilFraction(now) * now.Seconds()
	}
	return s
}

// addWriter installs the bursty writer (and, on every ProbeEvery-th
// guest, the latency probe) on rt. All randomness comes from rng, which
// the caller forks per guest from the workload seed.
func addWriter(k *sim.Kernel, g *hostGen, rt *hypervisor.GuestRuntime, w writerSpec, idx int, rng *stats.Stream) *guest.VDisk {
	d := rt.G.Disk("xvda")
	p := rt.G.NewProcess(1)
	interval := sim.Duration(w.IntervalMS) * sim.Millisecond
	pause := sim.Duration(w.PauseMS) * sim.Millisecond
	left := 0
	var write func()
	write = func() {
		if g.stopped {
			return
		}
		if left == 0 {
			left = w.BurstWrites
		}
		g.issued++
		d.Write(p, w.WriteBytes, nil)
		if left--; left > 0 {
			k.After(interval, write)
		} else {
			k.After(pause, write)
		}
	}
	prefill := int64(4096)
	if w.PrefillMB > 0 {
		prefill += rng.Int63n(w.PrefillMB << 20)
	}
	cycle := sim.Duration(w.BurstWrites)*interval + pause
	k.After(sim.Duration(rng.Int63n(int64(cycle))), func() {
		g.issued++
		d.Write(p, prefill, nil)
		write()
	})
	if w.ProbeEvery > 0 && idx%w.ProbeEvery == 0 {
		addProbe(k, g, d, rt.G.NewProcess(0), w.ProbeHz, rng.Fork("probe"))
	}
	return d
}

// addProbe starts a Poisson stream of 4 KiB random reads on d and keeps
// the exact simulated latency of each one issued inside the window.
func addProbe(k *sim.Kernel, g *hostGen, d *guest.VDisk, p *guest.Process, hz float64, rng *stats.Stream) {
	var fire func()
	fire = func() {
		if g.stopped {
			return
		}
		t0 := k.Now()
		g.issued++
		d.Read(p, 4096, false, func() {
			g.probed++
			if t0 >= g.winLo && t0 < g.winHi {
				g.samples = append(g.samples, float64(k.Now()-t0)/float64(sim.Microsecond))
			}
		})
		k.After(sim.DurationOf(rng.Exponential(hz)), fire)
	}
	k.After(sim.DurationOf(rng.Exponential(hz)), fire)
}

// writerCache keeps the guests' own flusher threads out of the way (no
// background ratio or expiry inside any span), so every byte that moves
// moved because Algorithm 1 ordered it.
func writerCache() pagecache.Config {
	return pagecache.Config{
		WakeInterval: 30 * sim.Second, DirtyRatio: 0.9, BackgroundRatio: 0.8,
		DirtyExpire: sim.Hour,
	}
}

// buildFlushBurst builds flush_burst_1k: one host assembled by
// iorchestra.NewPlatform.
func buildFlushBurst(s simSpec, seed uint64, v variant) *simBed {
	opts := []iorchestra.Option{iorchestra.WithPolicies(v.pol)}
	if v.trace {
		opts = append(opts, iorchestra.WithTracing(0))
	}
	p := iorchestra.NewPlatform(v.sys, seed, opts...)
	b := &simBed{
		kernels:  []*sim.Kernel{p.Kernel},
		hosts:    []*hypervisor.Host{p.Host},
		managers: []*core.Manager{p.Manager},
		gens:     []*hostGen{{}},
		epoch:    sim.Second,
	}
	rng := p.Rng.Fork("bench")
	for i := 0; i < s.Guests; i++ {
		rt := p.NewVM(2, 1, guest.DiskConfig{Name: "xvda", CacheConfig: writerCache()})
		b.disks = append(b.disks, addWriter(p.Kernel, b.gens[0], rt, s.Writer, i, rng.Fork(fmt.Sprintf("g%d", i))))
	}
	b.watch(v)
	return b
}

// buildScale builds scale_10k_50h: Hosts per-host kernels from
// cluster.NewParallelTestbed, advanced in epoch-synced lockstep.
func buildScale(s simSpec, seed uint64, v variant) *simBed {
	rng := stats.NewStream(seed, "bench/scale")
	// Fifty default-size decision-trace rings would hold 650 MB; the
	// traced pass reads only the recorders' lifetime counts and sinks.
	tb := cluster.NewParallelTestbed(s.Hosts, hypervisor.Config{Trace: v.trace, TraceCapacity: 1024}, rng)
	b := &simBed{
		kernels: tb.Kernels(),
		epoch:   sim.Duration(s.EpochMS) * sim.Millisecond,
	}
	base, extra := s.Guests/s.Hosts, s.Guests%s.Hosts
	for h := 0; h < s.Hosts; h++ {
		host := tb.Host(h)
		hr := rng.Fork(fmt.Sprintf("h%d", h))
		var m *core.Manager
		if v.sys == iorchestra.SystemIOrchestra {
			m = core.NewManager(host, v.pol, core.ManagerConfig{}, hr.Fork("mgr"))
		}
		g := &hostGen{}
		b.hosts = append(b.hosts, host)
		b.managers = append(b.managers, m)
		b.gens = append(b.gens, g)
		n := base
		if h < extra {
			n++
		}
		for i := 0; i < n; i++ {
			rt := host.CreateGuest(guest.Config{VCPUs: 2, MemBytes: 1 << 30},
				guest.DiskConfig{Name: "xvda", CacheConfig: writerCache()})
			if m != nil {
				m.EnableGuest(rt)
			}
			b.disks = append(b.disks, addWriter(tb.Kernel(h), g, rt, s.Writer, i, hr.Fork(fmt.Sprintf("g%d", i))))
		}
	}
	b.watch(v)
	return b
}

// buildCongestMix builds congest_numa_mix on a two-socket dedicated-core
// host.
func buildCongestMix(s simSpec, seed uint64, v variant) *simBed {
	mx := s.Mix
	opts := []iorchestra.Option{
		iorchestra.WithPolicies(v.pol),
		iorchestra.WithHostConfig(iorchestra.HostConfig{
			Sockets: 2, CoresPerSocket: 6,
			IOCoreCostPerReq:  sim.Duration(mx.IOCoreCostUS) * sim.Microsecond,
			IOCoreBps:         mx.IOCoreBps,
			MaxDeviceInFlight: mx.MaxDeviceInFlight,
		}),
	}
	if v.trace {
		opts = append(opts, iorchestra.WithTracing(0))
	}
	p := iorchestra.NewPlatform(v.sys, seed, opts...)
	k := p.Kernel
	b := &simBed{
		kernels:  []*sim.Kernel{k},
		hosts:    []*hypervisor.Host{p.Host},
		managers: []*core.Manager{p.Manager},
		gens:     []*hostGen{{}},
		epoch:    sim.Second,
	}
	rng := p.Rng.Fork("bench")
	for i := 0; i < s.Guests-1; i++ {
		rt := p.NewVM(1, 1, guest.DiskConfig{
			Name:        "xvda",
			QueueConfig: blkio.Config{Limit: mx.RingLimit, DispatchWindow: mx.RingWindow},
			MaxTransfer: mx.MaxTransferKB << 10,
		})
		d := rt.G.Disks()[0]
		b.disks = append(b.disks, d)
		gr := rng.Fork(fmt.Sprintf("g%d", i))
		b.personalities = append(b.personalities, workload.NewFS(k, rt.G, d, workload.FSConfig{
			Threads:      mx.FSThreads,
			MeanFileSize: mx.FSMeanFileKB << 10,
			Think:        sim.Duration(mx.FSThinkUS) * sim.Microsecond,
			BurstOn:      sim.Duration(mx.FSBurstOnMS+int64(i)*mx.FSBurstOnStepMS) * sim.Millisecond,
			BurstOff:     sim.Duration(mx.FSBurstOffMS+int64(i)*mx.FSBurstOffStepMS) * sim.Millisecond,
		}, gr.Fork("fs")))
		addProbe(k, b.gens[0], d, rt.G.NewProcess(0), mx.ProbeHz, gr.Fork("probe"))
	}
	big := p.NewVM(mx.BigVCPUs, mx.BigVCPUs, guest.DiskConfig{Name: "xvda", MaxTransfer: 256 << 10})
	bd := big.G.Disks()[0]
	b.disks = append(b.disks, bd)
	b.personalities = append(b.personalities,
		workload.NewMultiStream(k, big.G, bd, mx.BigStreams, mx.BigFileMB<<20, 1<<20, rng.Fork("ms")))
	b.cpu = workload.NewCPUBound(k, big.G, rng.Fork("c9"))
	b.cpu.Threads = mx.BigVCPUs - mx.BigStreams
	for _, per := range b.personalities {
		per.Start()
	}
	b.cpu.Start()
	b.watch(v)
	return b
}

// pairing measures two control-plane latencies from the product's
// decision trace, per domain: flush.order → flush.sync and
// congest.engage → the host's verdict. It is a recorder sink, so it runs
// on the host's kernel goroutine.
type pairing struct {
	orderAt  map[int]sim.Time
	engageAt map[int]sim.Time
	flushMS  []float64
	verdict  []float64 // µs
}

func (p *pairing) sink(r trace.Record) {
	switch r.Kind {
	case trace.KindFlushOrder:
		p.orderAt[r.Dom] = r.At
	case trace.KindFlushSync:
		if t0, ok := p.orderAt[r.Dom]; ok {
			p.flushMS = append(p.flushMS, float64(r.At-t0)/float64(sim.Millisecond))
			delete(p.orderAt, r.Dom)
		}
	case trace.KindCongestEngage:
		if _, open := p.engageAt[r.Dom]; !open {
			p.engageAt[r.Dom] = r.At
		}
	case trace.KindCongestVeto, trace.KindCongestConfirm:
		if t0, ok := p.engageAt[r.Dom]; ok {
			p.verdict = append(p.verdict, float64(r.At-t0)/float64(sim.Microsecond))
			delete(p.engageAt, r.Dom)
		}
	}
}

// watch hooks a pairing sink onto every host recorder of a traced bed.
func (b *simBed) watch(v variant) {
	if !v.trace {
		return
	}
	for _, h := range b.hosts {
		p := &pairing{orderAt: map[int]sim.Time{}, engageAt: map[int]sim.Time{}}
		b.pair = append(b.pair, p)
		if rec := h.Recorder(); rec != nil {
			rec.SetSink(p.sink)
		}
	}
}

// simOutcome is everything one run of a sim bed yields; both passes and
// the reference runs read what they need from it.
type simOutcome struct {
	spanSimS float64
	wall     float64 // seconds, measured span
	// sliceRate is events executed per wall second, one entry per slice:
	// informational (how uneven the box was), never an end-to-end figure.
	sliceRate  []float64
	quarterDur [4]float64
	events     uint64
	quarters   [4]core.Counters // counter deltas per quarter of the span
	total      core.Counters    // counter delta over the span
	hostFlush  []uint64         // per-host flush orders over the span
	started    uint64
	completed  uint64
	samples    []float64
	devBytes   float64 // over the span
	devBytesQ1 float64 // over the first quarter
	devReqs    uint64
	ioP99      sim.Time // merged blkio.Queue.Latency p99 after the drain
	utilMean   float64
	backlogMax int
	storeW     uint64
	storeR     uint64
	storeN     uint64
	busN       uint64
}

func counterDelta(a, b core.Counters) core.Counters {
	return core.Counters{
		FlushNotices:    b.FlushNotices - a.FlushNotices,
		FlushTimeouts:   b.FlushTimeouts - a.FlushTimeouts,
		Vetoes:          b.Vetoes - a.Vetoes,
		Confirms:        b.Confirms - a.Confirms,
		Relieves:        b.Relieves - a.Relieves,
		ReleaseTimeouts: b.ReleaseTimeouts - a.ReleaseTimeouts,
		HoldTimeouts:    b.HoldTimeouts - a.HoldTimeouts,
		CoschedRuns:     b.CoschedRuns - a.CoschedRuns,
		Fallbacks:       b.Fallbacks - a.Fallbacks,
	}
}

func (b *simBed) storeStats() (r, w, n, bus uint64) {
	for _, h := range b.hosts {
		sr, sw, sn := h.Store().Stats()
		r, w, n = r+sr, w+sw, n+sn
		bus += h.Bus().Notifications()
	}
	return r, w, n, bus
}

// measure warms the bed up, runs the measured span in one-simulated-second
// slices (each a span of the traced pass, closed with a counter snapshot),
// then stops the generators and drains. quarters is 4 in every real run;
// it bounds how much of the span is executed for the shortened reference
// runs (1 = first quarter only).
func (b *simBed) measure(s simSpec, seconds int, quarters int, tr *tracer, parent int) simOutcome {
	warm := sim.Time(s.WarmupSimS) * sim.Second
	span := sim.Duration(seconds*s.SimSecPerSecond) * sim.Second
	id := tr.begin(parent, "sim.warmup", 0)
	b.runUntil(warm)
	tr.end(id, nil)

	end := warm + span*sim.Duration(quarters)/4
	for _, g := range b.gens {
		g.winLo, g.winHi = warm, end
	}
	out := simOutcome{spanSimS: (end - warm).Seconds(), hostFlush: make([]uint64, len(b.hosts))}
	ev0 := b.executed()
	c0 := b.counters()
	bytes0, reqs0, _ := b.arrayStats()
	busy0 := b.busySeconds()
	r0, w0, n0, bus0 := b.storeStats()
	flush0 := make([]uint64, len(b.managers))
	for i, m := range b.managers {
		if m != nil {
			flush0[i] = m.Counters().FlushNotices
		}
	}
	prev := c0
	t0 := time.Now()
	for q := 0; q < quarters; q++ {
		qEnd := warm + span*sim.Duration(q+1)/4
		qStart := time.Now()
		for now := b.kernels[0].Now(); now < qEnd; now = b.kernels[0].Now() {
			next := now + sim.Second
			if next > qEnd {
				next = qEnd
			}
			id := tr.begin(parent, "sim.slice", 0)
			sliceEv, sliceStart := b.executed(), time.Now()
			b.runUntil(next)
			out.sliceRate = append(out.sliceRate, float64(b.executed()-sliceEv)/time.Since(sliceStart).Seconds())
			if backlog := b.backlog(); backlog > out.backlogMax {
				out.backlogMax = backlog
			}
			if tr != nil {
				tr.end(id, b.snapshot())
			}
		}
		out.quarterDur[q] = time.Since(qStart).Seconds()
		cur := b.counters()
		out.quarters[q] = counterDelta(prev, cur)
		prev = cur
		if q == 0 {
			by, _, _ := b.arrayStats()
			out.devBytesQ1 = by - bytes0
		}
	}
	out.wall = time.Since(t0).Seconds()
	out.events = b.executed() - ev0
	out.total = counterDelta(c0, prev)
	by, rq, _ := b.arrayStats()
	out.devBytes, out.devReqs = by-bytes0, rq-reqs0
	out.utilMean = (b.busySeconds() - busy0) / (out.spanSimS * float64(len(b.hosts)))
	r1, w1, n1, bus1 := b.storeStats()
	out.storeR, out.storeW, out.storeN, out.busN = r1-r0, w1-w0, n1-n0, bus1-bus0
	for i, m := range b.managers {
		if m != nil {
			out.hostFlush[i] = m.Counters().FlushNotices - flush0[i]
		}
	}

	id = tr.begin(parent, "sim.drain", 0)
	b.stop()
	b.runUntil(end + sim.Time(s.DrainSimS)*sim.Second)
	tr.end(id, nil)
	out.started, out.completed = b.ops()
	lat, _ := mergedQueueLatency(b)
	out.ioP99 = lat.Percentile(99)
	for _, g := range b.gens {
		out.samples = append(out.samples, g.samples...)
	}
	sort.Float64s(out.samples)
	sort.Float64s(out.sliceRate)
	return out
}

// simRate is simulated seconds per wall second over the whole measured
// span, slow slices included.
func (o *simOutcome) simRate() float64 { return o.spanSimS / o.wall }

func (b *simBed) backlog() int {
	n := 0
	for _, h := range b.hosts {
		n += h.Monitor().QueueBacklog()
	}
	return n
}

// snapshot is the counter set attached to each slice span.
func (b *simBed) snapshot() map[string]float64 {
	c := b.counters()
	_, w, n, bus := b.storeStats()
	return map[string]float64{
		"sim.events":            float64(b.executed()),
		"store.writes":          float64(w),
		"store.notifies":        float64(n),
		"bus.notifications":     float64(bus),
		"core.flush_orders":     float64(c.FlushNotices),
		"core.congest_vetoes":   float64(c.Vetoes),
		"core.congest_confirms": float64(c.Confirms),
		"core.congest_relieves": float64(c.Relieves),
		"core.cosched_runs":     float64(c.CoschedRuns),
	}
}

// required names the counters that must advance in every quarter, and
// whether every host (not just their sum) must have issued flush orders.
type required struct {
	flush, congestion, cosched bool
	everyHost                  bool
}

// check applies the sim correctness gates to an outcome and returns the
// failed ones; failedOps is the numerator of the failed fraction.
func (o *simOutcome) check(req required) (fails []string, failedOps uint64) {
	for q, c := range o.quarters {
		if req.flush && c.FlushNotices == 0 {
			fails = append(fails, fmt.Sprintf("flush policy idle in quarter %d", q+1))
		}
		if req.congestion && (c.Vetoes == 0 || c.Confirms == 0 || c.Relieves == 0) {
			fails = append(fails, fmt.Sprintf("congestion policy incomplete in quarter %d (vetoes %d, confirms %d, relieves %d)",
				q+1, c.Vetoes, c.Confirms, c.Relieves))
		}
		if req.cosched && c.CoschedRuns == 0 {
			fails = append(fails, fmt.Sprintf("co-scheduling idle in quarter %d", q+1))
		}
	}
	if req.everyHost {
		for h, n := range o.hostFlush {
			if n == 0 {
				fails = append(fails, fmt.Sprintf("host %d issued no flush order", h))
			}
		}
	}
	degraded := o.total.FlushTimeouts + o.total.ReleaseTimeouts + o.total.HoldTimeouts + o.total.Fallbacks
	if degraded > 0 {
		fails = append(fails, fmt.Sprintf("degradation fired: %d flush timeouts, %d release timeouts, %d hold timeouts, %d fallbacks",
			o.total.FlushTimeouts, o.total.ReleaseTimeouts, o.total.HoldTimeouts, o.total.Fallbacks))
	}
	unfinished := o.started - o.completed
	if unfinished > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d generator operations unfinished after the drain", unfinished, o.started))
	}
	if len(o.samples) == 0 {
		fails = append(fails, "no latency probe completed inside the span")
	}
	return fails, unfinished + degraded
}
