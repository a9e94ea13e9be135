package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"iorchestra"
	"iorchestra/internal/core"
)

// constants are the frozen sizes of all five workloads. They are stamped
// into every result, and the compare mode refuses to diff results whose
// constants differ: a change here is a new benchmark, not a regression.
type constants struct {
	FlushBurst   simSpec  `json:"flush_burst_1k"`
	CongestMix   simSpec  `json:"congest_numa_mix"`
	Scale        simSpec  `json:"scale_10k_50h"`
	HotPath      hotSpec  `json:"wire_hotpath"`
	DecisionLoop loopSpec `json:"wire_decision_loop"`
	// WireSetupReps is how many times a pass sets a wire workload up;
	// setup_s is the median (the sim beds carry their own count).
	WireSetupReps int `json:"wire_setup_reps"`
}

// Calibrated on the reference box (2-core Xeon 2.1 GHz, go1.24) so that
// each measured span takes about --seconds of wall time; see README.md
// "Sizing" for the utilisation and policy-firing evidence.
var frozen = constants{
	FlushBurst: simSpec{
		Guests: 1000, Hosts: 1, SimSecPerSecond: 12, WarmupSimS: 10, DrainSimS: 2, SetupReps: 21,
		Writer: writerSpec{
			WriteBytes: 10 << 10, IntervalMS: 10, BurstWrites: 50, PauseMS: 700,
			PrefillMB: 160, ProbeEvery: 10, ProbeHz: 10,
		},
	},
	CongestMix: simSpec{
		Guests: 21, Hosts: 1, SimSecPerSecond: 32, WarmupSimS: 10, DrainSimS: 10, SetupReps: 41,
		Mix: &mixSpec{
			FSThreads: 16, FSMeanFileKB: 256, FSThinkUS: 1000, FSBurstOnMS: 700, FSBurstOnStepMS: 30, FSBurstOffMS: 1500, FSBurstOffStepMS: 50,
			RingLimit: 48, RingWindow: 16, MaxTransferKB: 64, MaxDeviceInFlight: 96,
			BigVCPUs: 10, BigStreams: 6, BigFileMB: 256,
			IOCoreCostUS: 10, IOCoreBps: 3.8e9, ProbeHz: 50,
		},
	},
	Scale: simSpec{
		Guests: 10000, Hosts: 50, SimSecPerSecond: 2, WarmupSimS: 2, DrainSimS: 1, EpochMS: 50, SetupReps: 5,
		Writer: writerSpec{
			WriteBytes: 10 << 10, IntervalMS: 10, BurstWrites: 50, PauseMS: 700,
			PrefillMB: 40, ProbeEvery: 10, ProbeHz: 10,
		},
	},
	HotPath:       hotSpec{BatchOps: 96, Keys: 32, ValueBytes: 256},
	DecisionLoop:  loopSpec{FlushPages: 2048, CongestEvery: 3, WeightsEvery: 10},
	WireSetupReps: 41,
}

// runCtx carries one invocation's arguments into a workload.
type runCtx struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string // span dumps and sockets live here
	consts  constants
	log     func(format string, args ...any) // progress, to stderr
}

// result is what one workload reports. EndToEnd holds the top-line
// figures (topLine) and is always filled; PerLayer only by a traced pass.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Failures  []string          `json:"failures,omitempty"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	EndToEnd  metricSet         `json:"end_to_end"`
	PerLayer  metricSet         `json:"per_layer,omitempty"`
	Latency   timing            `json:"latency_us"`
	Exact     map[string]uint64 `json:"exact"` // counts that must repeat bit for bit
	Notes     []string          `json:"notes,omitempty"`
	SpanDump  string            `json:"span_dump,omitempty"`
	SelfTimes []string          `json:"self_times,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// seal closes a result: a traced pass's ledger opens with the ungated
// top-line figures of the untraced pass, and the verdict is drawn.
func (r *result) seal() {
	if r.PerLayer != nil {
		for _, d := range hostTime {
			r.PerLayer[d.Name] = r.EndToEnd[d.Name]
		}
	}
	r.Correct = len(r.Failures) == 0
}

// workloadDef names a workload, says why it exists, and runs it.
type workloadDef struct {
	Name string
	Why  string
	// Unit of work_per_s and the clock of latency_*, for the report.
	Work    string
	Latency string
	// Loop says how load is offered: open or closed, with the client count.
	Loop string
	Sim  bool
	run  func(ctx runCtx) (*result, error)
}

var workloadDefs = []workloadDef{
	{
		Name: "flush_burst_1k",
		Why:  "1000 bursty writers on one host: control plane (sim, store, bus, flush controller, dirty index) does the work, netstore none",
		Work: "guest-seconds simulated", Latency: "simulated, 4 KiB probe reads under flush interference",
		Loop: "open loop in simulated time: 1000 writers on their own schedule, 100 Poisson probe streams",
		Sim:  true,
		run: func(ctx runCtx) (*result, error) {
			return runSim(ctx, "flush_burst_1k", ctx.consts.FlushBurst, buildFlushBurst, required{flush: true})
		},
	},
	{
		Name: "congest_numa_mix",
		Why:  "20 small-ring FileBench guests plus a cross-socket VM: data plane (blkio, cgroup, I/O cores, RAID) does the work; only place Algorithms 2 and 3 fire",
		Work: "guest-seconds simulated", Latency: "simulated, 4 KiB probe reads through the guests' small rings",
		Loop: "closed loop in simulated time: 20 guests x 16 FileBench threads, 6 streams and 4 compute threads in the big VM; 20 open-loop Poisson probe streams",
		Sim:  true,
		run: func(ctx runCtx) (*result, error) {
			return runSim(ctx, "congest_numa_mix", ctx.consts.CongestMix, buildCongestMix, required{congestion: true, cosched: true})
		},
	},
	{
		Name: "scale_10k_50h",
		Why:  "10000 writers over 50 per-host kernels in epoch lockstep: only workload where the barrier and goroutine-per-kernel machinery does the work",
		Work: "guest-seconds simulated", Latency: "simulated, 4 KiB probe reads under flush interference",
		Loop: "open loop in simulated time: 10000 writers on their own schedule, 1000 Poisson probe streams",
		Sim:  true,
		run: func(ctx runCtx) (*result, error) {
			return runSim(ctx, "scale_10k_50h", ctx.consts.Scale, buildScale, required{flush: true, everyHost: true})
		},
	},
	{
		Name: "wire_hotpath",
		Why:  "one v2 client, 96-op batches, 6:1:1 write/read/list, own watch: netstore framing and store fan-out do the work, the simulator none",
		Work: "store operations", Latency: "host, frame round trip counted once per member op",
		Loop: "closed loop: 1 connection, 1 96-op frame in flight",
		run:  runHotPath,
	},
	{
		Name:    "wire_decision_loop",
		Work:    "decision rounds",
		Why:     "guest and Dom0 connections play the Algorithm 1-3 key protocol, one round in flight: wire_hotpath's layers, latency-bound",
		Latency: "host, guest publish to manager observing the ack",
		Loop:    "closed loop: 2 connections (guest and Dom0), 1 round in flight, unbatched",
		run:     runDecisionLoop,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// setupSettle ends every set-up, inside its timed span: the bed's
// goroutines, the collector and the box's scheduler go idle before the
// measured span's clock starts. It is also how issue 11's 0.05 s floor on
// setup_s reaches BENCHMARK.json, which has no field for one: the
// millisecond beds (1 ms congest_numa_mix, 3 ms wire) time little but how
// fast the box wakes cold goroutines, and their ten-seed medians moved
// 40-70 % between two phases of the reference box, past any bound the
// contract allows. With the pause a set-up that grows by 13 ms or more still
// fails the 25 % bound; the build alone is netstore.dial_ms and the
// "sim.build" / "wire.setup" spans of the traced pass.
const setupSettle = 50 * time.Millisecond

// timedSetups runs build reps times, discarding each product but the last,
// and returns the last product plus the median set-up time (build and
// settle): set-up cost is an end-to-end metric, so work moved out of the
// measured span into construction still shows. A failed build ends the
// series.
func timedSetups[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		var err error
		if last, err = build(); err != nil {
			return last, 0, err
		}
		time.Sleep(setupSettle)
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return last, percentileOf(times, 50), nil
}

type simBuilder func(s simSpec, seed uint64, v variant) *simBed

// runSim runs one sim workload: the untraced end-to-end pass and, when
// asked, the traced pass with its reference runs and layer probes.
func runSim(ctx runCtx, name string, s simSpec, build simBuilder, req required) (*result, error) {
	res := &result{Workload: name, EndToEnd: metricSet{}, Exact: map[string]uint64{}}
	// Discarded beds are left to the collector; building cannot fail.
	bed, setup, _ := timedSetups(s.SetupReps, func() (*simBed, error) { return build(s, ctx.seed, measured), nil }, nil)
	runtime.GC()
	ctx.log("%s: untraced pass, %d simulated seconds", name, ctx.seconds*s.SimSecPerSecond)
	out := bed.measure(s, ctx.seconds, 4, nil, 0)

	fails, failedOps := out.check(req)
	res.Failures = append(res.Failures, fails...)
	res.Attempted, res.Failed = out.started, failedOps
	res.Latency = summarize(out.samples)
	res.EndToEnd["setup_s"] = setup
	res.EndToEnd["work_per_s"] = float64(s.Guests) * out.simRate()
	res.EndToEnd["latency_p50_us"] = res.Latency.P50
	res.EndToEnd["latency_p99_us"] = res.Latency.P99
	// Simulated time is quiet by construction: the box cannot disturb it.
	res.EndToEnd["latency_quiet_us"] = res.Latency.P50
	simExact(res.Exact, &out)
	res.Notes = append(res.Notes, fmt.Sprintf("%d guests on %d kernel(s); %.0f simulated s in %.2f s wall; array busy %.0f%% of the span",
		s.Guests, len(bed.kernels), out.spanSimS, out.wall, 100*out.utilMean))
	res.Notes = append(res.Notes, fmt.Sprintf("events per wall s: %.0f over the span; over its %d one-simulated-second slices p10 %.0f, median %.0f, p90 %.0f",
		float64(out.events)/out.wall, len(out.sliceRate), percentileOf(out.sliceRate, 10), percentileOf(out.sliceRate, 50), percentileOf(out.sliceRate, 90)))
	res.Notes = append(res.Notes, fmt.Sprintf("model (simulated, exact for a seed; gated bit for bit as device.bytes and model.io_p99_ns): model_io_mbps %.4f MB/s, model_io_p99_ms %.4f ms",
		out.devBytes/1e6/out.spanSimS, out.ioP99.Seconds()*1e3))

	if ctx.trace {
		if err := traceSim(ctx, res, name, s, build, &out); err != nil {
			return nil, err
		}
	}
	res.seal()
	return res, nil
}

// simExact records the counts that are a pure function of seed and
// constants. A change meant only to speed the simulator up must leave
// every one of them identical.
func simExact(m map[string]uint64, o *simOutcome) {
	m["sim.events"] = o.events
	m["core.flush_orders"] = o.total.FlushNotices
	m["core.congest_vetoes"] = o.total.Vetoes
	m["core.congest_confirms"] = o.total.Confirms
	m["core.congest_relieves"] = o.total.Relieves
	m["core.cosched_runs"] = o.total.CoschedRuns
	m["device.requests"] = o.devReqs
	m["device.bytes"] = uint64(o.devBytes)
	m["store.writes"] = o.storeW
	m["gen.started"] = o.started
	m["probe.samples"] = uint64(len(o.samples))
	// Latency in whole nanoseconds, so the simulated percentiles are part
	// of the bit-identity check too.
	m["probe.p50_ns"] = uint64(percentileOf(o.samples, 50) * 1e3)
	m["probe.p99_ns"] = uint64(percentileOf(o.samples, 99) * 1e3)
	m["model.io_p99_ns"] = uint64(o.ioP99)
}

// traceSim is the traced pass of a sim workload: the same span with the
// product recorder on and harness spans around every slice, then the
// shortened reference runs and the layer probes.
func traceSim(ctx runCtx, res *result, name string, s simSpec, build simBuilder, untraced *simOutcome) error {
	tr := newTracer(name)
	root := tr.begin(0, "pass", 0)
	pl := metricSet{}
	res.PerLayer = pl

	id := tr.begin(root, "sim.build", 0)
	tv := measured
	tv.trace = true
	bed := build(s, ctx.seed, tv)
	tr.end(id, nil)
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx.log("%s: traced pass", name)
	out := bed.measure(s, ctx.seconds, 4, tr, root)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	// The recorder is passive: a traced run must make the decisions of
	// the untraced one.
	traced := map[string]uint64{}
	simExact(traced, &out)
	for k, v := range res.Exact {
		if traced[k] != v {
			res.fail("tracing changed %s: %d untraced, %d traced", k, v, traced[k])
		}
	}

	spanS := out.spanSimS
	pl["model.io_mbps"] = out.devBytes / 1e6 / spanS
	_, qlat := mergedQueueLatency(bed)
	pl["model.io_p99_ms"] = out.ioP99.Seconds() * 1e3
	pl["sim.events"] = float64(out.events)
	pl["sim.ns_per_event"] = untraced.wall * 1e9 / float64(untraced.events)
	pl["sim.events_per_guest_s"] = float64(out.events) / (float64(s.Guests) * spanS)
	pl["store.writes"] = float64(out.storeW)
	pl["store.reads"] = float64(out.storeR)
	pl["store.notifies"] = float64(out.storeN)
	if out.storeW > 0 {
		pl["store.notifies_per_write"] = float64(out.storeN) / float64(out.storeW)
	}
	pl["bus.notifications"] = float64(out.busN)
	pl["core.flush_orders"] = float64(out.total.FlushNotices)
	pl["core.flush_timeouts"] = float64(out.total.FlushTimeouts)
	pl["core.congest_vetoes"] = float64(out.total.Vetoes)
	pl["core.congest_confirms"] = float64(out.total.Confirms)
	pl["core.congest_relieves"] = float64(out.total.Relieves)
	pl["core.cosched_runs"] = float64(out.total.CoschedRuns)
	pl["core.fallbacks"] = float64(out.total.Fallbacks)
	pl["core.us_per_tick"] = untraced.wall * 1e6 / (spanS / 0.050)
	var flushMS, verdictUS []float64
	for _, p := range bed.pair {
		flushMS = append(flushMS, p.flushMS...)
		verdictUS = append(verdictUS, p.verdict...)
	}
	sort.Float64s(flushMS)
	sort.Float64s(verdictUS)
	pl["core.flush_order_to_sync_p50_ms"] = percentileOf(flushMS, 50)
	pl["core.congest_query_to_verdict_p50_us"] = percentileOf(verdictUS, 50)

	pl["hypervisor.dev_util_mean"] = out.utilMean
	pl["hypervisor.backlog_max"] = float64(out.backlogMax)
	var hostP99 float64
	for _, h := range bed.hosts {
		if v := h.Monitor().HostPathP99().Seconds() * 1e3; v > hostP99 {
			hostP99 = v
		}
	}
	pl["hypervisor.host_path_p99_ms"] = hostP99
	pl["hypervisor.iocore_util_max"] = iocoreUtilMax(bed, s)
	pl["hypervisor.monitor_snapshot_ns"] = probeMonitorSnapshot(bed, tr, root)

	var throttles uint64
	var wbBytes float64
	var dirtyEnd int64
	var sub, comp, merged, thr uint64
	for _, d := range bed.disks {
		throttles += d.Cache.Throttles()
		wbBytes += d.Cache.WrittenBackBytes()
		dirtyEnd += d.Cache.DirtyPages()
		sub += d.Queue.Submitted()
		comp += d.Queue.Completed()
		merged += d.Queue.Merged()
		thr += d.Queue.Throttled()
	}
	pl["pagecache.throttles"] = float64(throttles)
	pl["pagecache.written_back_mb"] = wbBytes / 1e6
	pl["pagecache.dirty_pages_end"] = float64(dirtyEnd)
	pl["blkio.submitted"] = float64(sub)
	pl["blkio.completed"] = float64(comp)
	pl["blkio.merged"] = float64(merged)
	if sub > 0 {
		pl["blkio.merge_ratio"] = float64(merged) / float64(sub)
	}
	pl["blkio.throttled"] = float64(thr)
	pl["blkio.queue_wait_p50_ms"] = qlat.Percentile(50).Seconds() * 1e3
	_, _, svc := bed.arrayStats()
	pl["device.requests"] = float64(out.devReqs)
	pl["device.bytes_mb"] = out.devBytes / 1e6
	pl["device.service_p50_us"] = svc.Percentile(50).Seconds() * 1e6

	var recorded, dropped uint64
	for _, h := range bed.hosts {
		if rec := h.Recorder(); rec != nil {
			recorded += rec.Recorded()
			dropped += rec.Dropped()
		}
	}
	pl["trace.records"] = float64(recorded)
	pl["trace.dropped"] = float64(dropped)
	pl["trace.overhead_frac"] = untraced.simRate()/out.simRate() - 1

	pl["proc.alloc_bytes_per_event"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(out.events)
	procMetrics(pl)

	// Reference runs, first quarter of the span only.
	bed = nil
	runtime.GC()
	id = tr.begin(root, "ref.no_policies", 0)
	nopol := build(s, ctx.seed, variant{sys: iorchestra.SystemIOrchestra, pol: core.Policies{}})
	ref := nopol.measure(s, ctx.seconds, 1, nil, 0)
	tr.end(id, nil)
	pl["core.policy_wall_share"] = 1 - ref.quarterDur[0]/untraced.quarterDur[0]
	if s.Mix != nil {
		// Closed-loop guests: completed bytes are a model outcome, so the
		// Baseline comparison of Fig. 9/10a is defined. The open-loop
		// writer workloads offer the same bytes to both systems and
		// Baseline merely defers them past any window, so they report 0.
		id = tr.begin(root, "ref.baseline", 0)
		base := build(s, ctx.seed, variant{sys: iorchestra.SystemBaseline}).measure(s, ctx.seconds, 1, nil, 0)
		tr.end(id, nil)
		if base.devBytesQ1 > 0 {
			pl["model.gain_pct"] = 100 * (untraced.devBytesQ1/base.devBytesQ1 - 1)
		}
	}
	if s.Hosts > 1 {
		pl["cluster.kernels"] = float64(s.Hosts)
		pl["cluster.epochs"] = spanS * 1e3 / float64(s.EpochMS)
		speedup, err := probeParallelSpeedup(ctx, s, build, tr, root)
		if err != nil {
			res.fail("%v", err)
		}
		pl["cluster.parallel_speedup"] = speedup
	}

	shape := probeShape{keys: 10 * s.Guests / s.Hosts, valueBytes: 4, domains: s.Guests / s.Hosts}
	probeStore(pl, shape, tr, root)
	pl["bus.ns_per_domain_write"] = probeBus(shape, tr, root)
	reqBytes := s.Writer.WriteBytes
	if s.Mix != nil {
		reqBytes = s.Mix.MaxTransferKB << 10
	}
	pl["blkio.ns_per_request"] = probeBlkio(reqBytes, tr, root)
	pl["device.ns_per_request"] = probeDevice(tr, root)

	tr.end(root, nil)
	return finishTrace(ctx, res, tr)
}

// finishTrace dumps the span log and attaches its summary to the result.
func finishTrace(ctx runCtx, res *result, tr *tracer) error {
	path, err := tr.dump(ctx.outDir)
	if err != nil {
		return err
	}
	res.SpanDump = path
	res.SelfTimes = tr.topSelf(8)
	if tr.dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("span log full: %d spans kept, %d not kept", len(tr.spans), tr.dropped))
	}
	return nil
}

// procMetrics fills the process-level lines shared by every workload.
func procMetrics(pl metricSet) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pl["proc.gc_cpu_frac"] = ms.GCCPUFraction
	pl["proc.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	pl["proc.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
