package main

import (
	"math"
	"strings"
)

// The metric vocabulary. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatchesRegistry
// keeps the two in step. README.md defines every name.

// metricDef is one named metric of the ledger.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd lists the figures BENCHMARK.json gates: the ones the shared
// reference box can hold steady from run to run. Every workload reports
// both; README.md says what latency_quiet_us means on each.
//
// Bound here is BENCHMARK.json's: one number per name for all five
// workloads, compared across ten seeds, and the acceptance driver refuses
// the benchmark when any workload's spread exceeds it (and asks for a
// third). The wire workloads' quiet latency spreads 1-6 % on the reference
// box; set-up follows the box's phases like every host-time figure (the
// driver holds it to the drift of its median only). Both sit at the
// contract's ceiling. The finer,
// per-workload bounds of issue 11 are the harness's own: gateFor below,
// applied by -repeat and -compare.
var endToEnd = []metricDef{
	{Name: "latency_quiet_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// hostTime lists the top-line figures that follow the box, not the code:
// over ten seeds the host-time rates spread 10-28 % and the wire
// workloads' pooled percentiles 7-130 % of their median, whole runs at a
// time, whatever the estimator (README.md "Repeatability"). As issue 11
// rules for a metric that cannot hold its bound, they keep their names and
// are reported, not gated: BENCHMARK.json lists them per layer. Every pass
// still measures and prints them, and -repeat and -compare still walk them.
var hostTime = []metricDef{
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
}

// topLine is what every pass of every workload measures: result.EndToEnd
// holds exactly these names.
var topLine = append(append([]metricDef(nil), hostTime...), endToEnd...)

// gate is the harness's own bound on one end-to-end metric of one
// workload, for runs of the same seed on the same box: issue 11's table.
type gate struct {
	Bound float64
	// FloorS makes a difference smaller than this many seconds no
	// difference at all (setup_s, as issue 11 has it).
	FloorS float64
	// Ungated is why the metric is reported but not gated on this
	// workload: its spread on the reference box exceeds Bound, and the
	// bound is not widened to fit (README.md "Repeatability").
	Ungated string
}

// exceeded reports whether a relative difference rel, which is abs in the
// metric's unit, is outside the gate.
func (g gate) exceeded(rel, abs float64) bool {
	return rel > g.Bound && math.Abs(abs) >= g.FloorS
}

// ungated lists the workload/metric pairs whose spread over five sets on
// the reference box exceeded the bound issue 11 gives them, or came within
// a point of it, in any of the three committed tables (README.md
// "Repeatability": loud and quiet quarters of an hour); the value is that
// evidence. It is every host-time rate and pooled latency: the box cannot
// hold a tenth. They keep their name and are
// printed by every mode; -repeat and -compare do not fail on them, and
// BENCHMARK.json says so in the workload's why. What stays gated: every
// exact count, the simulated latencies, the wire workloads' quiet latency,
// and set-up on four workloads.
var ungated = map[string]string{
	"flush_burst_1k/work_per_s":         "spreads 3-16 % against 10 %",
	"congest_numa_mix/work_per_s":       "spreads 4-31 % against 10 %",
	"scale_10k_50h/work_per_s":          "spreads 16-36 % against 15 %",
	"scale_10k_50h/setup_s":             "spreads 12-40 %, up to 0.2 s, against 25 %",
	"wire_hotpath/work_per_s":           "spreads 9-40 % against 10 %",
	"wire_hotpath/latency_p50_us":       "spreads 7-18 % against 10 %",
	"wire_hotpath/latency_p99_us":       "spreads 9-340 % against 15 %",
	"wire_decision_loop/work_per_s":     "spreads 7-11 % against 10 %",
	"wire_decision_loop/latency_p50_us": "spreads 4-18 % against 10 %",
	"wire_decision_loop/latency_p99_us": "spreads 7-19 % against 15 %",
}

// ungatedNote is the clause BENCHMARK.json appends to a workload's why,
// the only free text that file has, naming the metrics the harness
// reports there without gating them.
func ungatedNote(workload string) string {
	var names []string
	for _, d := range topLine {
		if ungated[workload+"/"+d.Name] != "" {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	return "; not gated by the harness: " + strings.Join(names, ", ")
}

// gateFor is issue 11's bound table: set-up 25 % with a 0.05 s floor;
// simulated latencies 0.1 % (exact for a seed, so any change is a model
// change); host-time rates and medians 10 %, 15 % on scale_10k_50h and on
// the wire workloads' p99. latency_quiet_us is not in that table: on the
// wire workloads it gets the medians' 10 % (2-4 % over five sets, 3-7 %
// between extremes).
func gateFor(def workloadDef, metric string) gate {
	g := gate{Bound: 0.10, Ungated: ungated[def.Name+"/"+metric]}
	switch {
	case metric == "setup_s":
		g.Bound, g.FloorS = 0.25, 0.05
	case def.Sim && metric != "work_per_s":
		g.Bound = 0.001
	case def.Name == "scale_10k_50h", metric == "latency_p99_us":
		g.Bound = 0.15
	}
	return g
}

// perLayer lists the cost and count lines of single layers, reported by
// the traced pass, after the ungated top-line figures of the untraced pass
// that precedes it. A layer a workload does not exercise reports 0.
var perLayer = append(append([]metricDef(nil), hostTime...), []metricDef{
	// Modelled platform (simulated time; exact for a seed).
	{Name: "model.io_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "model.io_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "model.gain_pct", Unit: "%", Better: "higher"},

	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_guest_s", Unit: "count", Better: "lower"},

	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "store.reads", Unit: "count", Better: "lower"},
	{Name: "store.notifies", Unit: "count", Better: "lower"},
	{Name: "store.notifies_per_write", Unit: "count", Better: "lower"},
	{Name: "store.ns_per_write_w0", Unit: "ns", Better: "lower"},
	{Name: "store.ns_per_write_w1", Unit: "ns", Better: "lower"},
	{Name: "store.ns_per_write_w16", Unit: "ns", Better: "lower"},
	{Name: "store.ns_per_cursor_write", Unit: "ns", Better: "lower"},
	{Name: "store.local_round_us", Unit: "us", Better: "lower"},

	{Name: "bus.notifications", Unit: "count", Better: "lower"},
	{Name: "bus.ns_per_domain_write", Unit: "ns", Better: "lower"},

	{Name: "netstore.events", Unit: "count", Better: "lower"},
	{Name: "netstore.coalesced", Unit: "count", Better: "lower"},
	{Name: "netstore.coalesce_ratio", Unit: "frac", Better: "lower"},
	{Name: "netstore.batches", Unit: "count", Better: "lower"},
	{Name: "netstore.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "netstore.evicted", Unit: "count", Better: "lower"},
	{Name: "netstore.write_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "netstore.batch_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "netstore.watch_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "netstore.watch_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "netstore.round_overhead_us", Unit: "us", Better: "lower"},
	{Name: "netstore.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "netstore.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "netstore.alloc_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "core.flush_orders", Unit: "count", Better: "higher"},
	{Name: "core.flush_timeouts", Unit: "count", Better: "lower"},
	{Name: "core.congest_vetoes", Unit: "count", Better: "higher"},
	{Name: "core.congest_confirms", Unit: "count", Better: "higher"},
	{Name: "core.congest_relieves", Unit: "count", Better: "higher"},
	{Name: "core.cosched_runs", Unit: "count", Better: "higher"},
	{Name: "core.fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.us_per_tick", Unit: "us", Better: "lower"},
	{Name: "core.policy_wall_share", Unit: "frac", Better: "lower"},
	{Name: "core.flush_order_to_sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.congest_query_to_verdict_p50_us", Unit: "us", Better: "lower"},

	{Name: "hypervisor.monitor_snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "hypervisor.dev_util_mean", Unit: "frac", Better: "lower"},
	{Name: "hypervisor.backlog_max", Unit: "count", Better: "lower"},
	{Name: "hypervisor.host_path_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "hypervisor.iocore_util_max", Unit: "frac", Better: "lower"},

	{Name: "pagecache.throttles", Unit: "count", Better: "lower"},
	{Name: "pagecache.written_back_mb", Unit: "MB", Better: "higher"},
	{Name: "pagecache.dirty_pages_end", Unit: "count", Better: "lower"},

	{Name: "blkio.submitted", Unit: "count", Better: "higher"},
	{Name: "blkio.completed", Unit: "count", Better: "higher"},
	{Name: "blkio.merged", Unit: "count", Better: "higher"},
	{Name: "blkio.merge_ratio", Unit: "frac", Better: "higher"},
	{Name: "blkio.throttled", Unit: "count", Better: "lower"},
	{Name: "blkio.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blkio.ns_per_request", Unit: "ns", Better: "lower"},

	{Name: "device.requests", Unit: "count", Better: "lower"},
	{Name: "device.bytes_mb", Unit: "MB", Better: "higher"},
	{Name: "device.service_p50_us", Unit: "us", Better: "lower"},
	{Name: "device.ns_per_request", Unit: "ns", Better: "lower"},

	{Name: "cluster.kernels", Unit: "count", Better: "lower"},
	{Name: "cluster.epochs", Unit: "count", Better: "lower"},
	{Name: "cluster.parallel_speedup", Unit: "x", Better: "higher"},

	{Name: "trace.records", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.gomaxprocs", Unit: "count", Better: "higher"},
}...)

// value is one reported number with its unit, as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values and remembers which names a
// workload set, so the report can zero-fill the rest.
type metricSet map[string]float64

// report renders the set against a definition list: every defined name is
// present exactly once, unset names read 0, and a name outside the list is
// a programming error the harness tests catch.
func (m metricSet) report(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// unknown lists names in the set that defs does not define.
func (m metricSet) unknown(defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	var bad []string
	for name := range m {
		if !known[name] {
			bad = append(bad, name)
		}
	}
	return bad
}
