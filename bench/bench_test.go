package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iorchestra"
	"iorchestra/internal/core"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// --- BENCHMARK.json ---------------------------------------------------------

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Fatalf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != 10 {
		t.Fatalf("run_seconds = %d, the spans were calibrated for 10", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range file.Workloads {
		// The why also names what the harness reports without gating.
		why := workloadDefs[i].Why + ungatedNote(workloadDefs[i].Name)
		if w.Name != workloadDefs[i].Name || w.Why != why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloadDefs[i].Name, why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the registry")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s) exceeds the name or unit limit", d.Name, d.Unit)
		}
	}
}

// --- Percentile rules -------------------------------------------------------

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},   // 19 × 0.5 = 9.5 beyond the median: nothing qualifies
		{20, 50, true},   // exactly ten beyond p50
		{99, 50, true},   // 9.9 beyond p90
		{100, 90, true},  // exactly ten beyond p90
		{999, 90, true},  // 9.99 beyond p99
		{1000, 99, true}, // exactly ten beyond p99
		{10000, 99.9, true},
		{100000, 99.99, true},
		{5000000, 99.99, true}, // the ladder's top
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentileOf(xs, 50); got != 5.5 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentileOf(xs, 99); math.Abs(got-9.91) > 1e-9 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentileOf(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if got := relSpread(xs); got != 1 {
		t.Errorf("relSpread = %v", got)
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P50 != 3 || s.TailP != 0 {
		t.Errorf("summarize = %+v", s)
	}
}

// --- Span dump --------------------------------------------------------------

func TestSpanDump(t *testing.T) {
	tr := newTracer("unit")
	root := tr.begin(0, "pass", 0)
	for i := 0; i < 3; i++ {
		slice := tr.begin(root, "slice", 0)
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ { // overlapping children must not be subtracted twice
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := tr.hot(slice, "callback", i+1)
				time.Sleep(2 * time.Millisecond)
				tr.end(id, nil)
			}()
		}
		wg.Wait()
		time.Sleep(time.Millisecond)
		tr.end(slice, map[string]float64{"n": float64(i)})
	}
	tr.end(root, nil)
	path, err := tr.dump(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	spans := readSpans(t, path)
	if len(spans) != 1+3+6 {
		t.Fatalf("%d spans dumped", len(spans))
	}
	var rootSpan span
	for _, s := range spans {
		if s.Workload != "unit" || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
		if s.Parent == 0 {
			rootSpan = s
		}
	}
	// Self times partition the root: their sum is the root's duration,
	// less only what overlapping children covered twice over.
	var sum, overlap int64
	self := selfTimes(spans)
	for _, s := range spans {
		sum += self[s.ID]
	}
	for _, s := range spans {
		if s.Name == "slice" {
			var kids int64
			for _, c := range spans {
				if c.Parent == s.ID {
					kids += c.EndNS - c.StartNS
				}
			}
			overlap += kids - ((s.EndNS - s.StartNS) - self[s.ID])
		}
	}
	total := rootSpan.EndNS - rootSpan.StartNS
	if diff := math.Abs(float64(sum-overlap-total)) / float64(total); diff > 0.02 {
		t.Errorf("self times sum to %d (overlap %d), root lasts %d: off by %.1f%%", sum, overlap, total, 100*diff)
	}
	if self[rootSpan.ID] < 0 || self[rootSpan.ID] > total/2 {
		t.Errorf("root self time %d of %d", self[rootSpan.ID], total)
	}
}

func TestTracerBoundsHotSpans(t *testing.T) {
	tr := newTracer("unit")
	root := tr.begin(0, "pass", 0)
	for i := 0; i < maxSpans+10; i++ {
		tr.end(tr.hot(root, "op", 0), nil)
	}
	if id := tr.begin(root, "probe", 0); id == 0 {
		t.Error("a structural span was dropped")
	}
	if tr.dropped != 11 { // the root took one slot
		t.Errorf("dropped = %d", tr.dropped)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(0, "x", 0), nil) // the untraced pass: no-ops
}

// --- Workloads at a tiny scale ----------------------------------------------

func tinyCtx(t *testing.T) runCtx {
	c := frozen
	c.WireSetupReps = 1
	c.FlushBurst.SetupReps, c.CongestMix.SetupReps, c.Scale.SetupReps = 1, 1, 1
	c.FlushBurst.Guests, c.FlushBurst.SimSecPerSecond, c.FlushBurst.WarmupSimS = 40, 8, 1
	c.FlushBurst.Writer.ProbeEvery = 2
	c.CongestMix.SimSecPerSecond, c.CongestMix.WarmupSimS, c.CongestMix.DrainSimS = 12, 2, 6
	c.Scale.Guests, c.Scale.Hosts, c.Scale.SimSecPerSecond, c.Scale.WarmupSimS = 80, 4, 4, 1
	c.Scale.Writer.ProbeEvery = 2
	return runCtx{seed: 11, seconds: 1, outDir: t.TempDir(), consts: c, log: t.Logf}
}

func wantCorrect(t *testing.T, res *result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	for _, d := range topLine {
		if v := res.EndToEnd[d.Name]; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0", res.Workload, d.Name, v)
		}
	}
	if bad := res.EndToEnd.unknown(topLine); len(bad) > 0 {
		t.Errorf("undefined top-line figures %v", bad)
	}
	// A traced pass's ledger opens with the figures BENCHMARK.json does
	// not gate, as the untraced pass measured them.
	for _, d := range hostTime {
		if v, ok := res.PerLayer[d.Name]; res.PerLayer != nil && (!ok || v != res.EndToEnd[d.Name]) {
			t.Errorf("%s: per-layer %s = %v, untraced pass measured %v", res.Workload, d.Name, v, res.EndToEnd[d.Name])
		}
	}
}

func failuresMention(fails []string, what string) bool {
	for _, f := range fails {
		if strings.Contains(f, what) {
			return true
		}
	}
	return false
}

func TestFlushBurstTiny(t *testing.T) {
	ctx := tinyCtx(t)
	res, err := findWorkload("flush_burst_1k").run(ctx)
	wantCorrect(t, res, err)
	if res.Exact["core.flush_orders"] == 0 || res.Exact["probe.samples"] == 0 {
		t.Errorf("exact counts %v", res.Exact)
	}
	// Same seed, same inputs, same simulated results.
	again, err := findWorkload("flush_burst_1k").run(ctx)
	wantCorrect(t, again, err)
	if !reflect.DeepEqual(res.Exact, again.Exact) {
		t.Errorf("exact counts differ between two runs of one seed:\n%v\n%v", res.Exact, again.Exact)
	}
	// Another seed, other inputs.
	ctx.seed++
	other, err := findWorkload("flush_burst_1k").run(ctx)
	wantCorrect(t, other, err)
	if reflect.DeepEqual(res.Exact, other.Exact) {
		t.Error("a different seed produced identical counts")
	}
}

func TestFlushGateTripsWithoutThePolicy(t *testing.T) {
	ctx := tinyCtx(t)
	s := ctx.consts.FlushBurst
	noFlush := variant{sys: iorchestra.SystemIOrchestra, pol: core.Policies{Congestion: true, Cosched: true}}
	out := buildFlushBurst(s, ctx.seed, noFlush).measure(s, ctx.seconds, 4, nil, 0)
	fails, _ := out.check(required{flush: true})
	if !failuresMention(fails, "flush policy idle in quarter 1") || !failuresMention(fails, "quarter 4") {
		t.Fatalf("gate did not trip: %v", fails)
	}
}

func TestCongestMixTiny(t *testing.T) {
	ctx := tinyCtx(t)
	res, err := findWorkload("congest_numa_mix").run(ctx)
	wantCorrect(t, res, err)
	for _, k := range []string{"core.congest_vetoes", "core.congest_confirms", "core.congest_relieves", "core.cosched_runs"} {
		if res.Exact[k] == 0 {
			t.Errorf("%s = 0", k)
		}
	}
	// Without the congestion policy the quarter gate must say so.
	s := ctx.consts.CongestMix
	out := buildCongestMix(s, ctx.seed, variant{sys: iorchestra.SystemIOrchestra, pol: core.Policies{Cosched: true}}).
		measure(s, ctx.seconds, 4, nil, 0)
	if fails, _ := out.check(required{congestion: true, cosched: true}); !failuresMention(fails, "congestion policy incomplete") {
		t.Fatalf("gate did not trip: %v", fails)
	}
}

func TestScaleTiny(t *testing.T) {
	ctx := tinyCtx(t)
	res, err := findWorkload("scale_10k_50h").run(ctx)
	wantCorrect(t, res, err)
	// A host without a manager issues no flush orders.
	s := ctx.consts.Scale
	bed := buildScale(s, ctx.seed, measured)
	bed.managers[2] = nil
	out := bed.measure(s, ctx.seconds, 4, nil, 0)
	if fails, _ := out.check(required{flush: true, everyHost: true}); !failuresMention(fails, "host 2 issued no flush order") {
		t.Fatalf("per-host gate did not trip: %v", fails)
	}
}

func TestUnfinishedOperationsCount(t *testing.T) {
	o := simOutcome{started: 10, completed: 7, samples: []float64{1}}
	fails, failed := o.check(required{})
	if failed != 3 || !failuresMention(fails, "3 of 10 generator operations unfinished") {
		t.Fatalf("failed=%d fails=%v", failed, fails)
	}
	o = simOutcome{started: 10, completed: 10, samples: []float64{1}, total: core.Counters{HoldTimeouts: 2}}
	if fails, failed := o.check(required{}); failed != 2 || !failuresMention(fails, "degradation fired") {
		t.Fatalf("failed=%d fails=%v", failed, fails)
	}
}

func TestHotPathTiny(t *testing.T) {
	ctx := tinyCtx(t)
	spec := ctx.consts.HotPath
	h, err := newHotClient(ctx.outDir, spec, ctx.seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	out := h.run(spec, 150*time.Millisecond)
	res := &result{}
	out.check(res)
	if len(res.Failures) > 0 || out.ops == 0 || out.events == 0 {
		t.Fatalf("ops=%d events=%d failures=%v", out.ops, out.events, res.Failures)
	}
	if out.ops%uint64(spec.BatchOps) != 0 {
		t.Errorf("%d ops is not a whole number of %d-op frames", out.ops, spec.BatchOps)
	}
	// A deliberately wrong expectation must fail the read-back.
	h.last[3] = (h.last[3] + 1) % len(h.pool)
	if fails := h.readBack(); len(fails) != 1 || !strings.Contains(fails[0], h.keys[3]) {
		t.Fatalf("read-back did not catch the wrong value: %v", fails)
	}
}

func TestDecisionLoopTiny(t *testing.T) {
	ctx := tinyCtx(t)
	spec := ctx.consts.DecisionLoop
	l, err := newWireLoop(ctx.outDir, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	out := l.run(spec, ctx.seed, 150*time.Millisecond, nil, 0)
	res := &result{}
	out.check(res)
	if len(res.Failures) > 0 || out.completed == 0 || out.completed != out.attempted {
		t.Fatalf("completed %d of %d: %v", out.completed, out.attempted, res.Failures)
	}
	if out.completed < uint64(spec.WeightsEvery) {
		t.Fatalf("only %d rounds: the script never reached a weight publish", out.completed)
	}
}

func TestDecisionLoopLocalMatchesScriptAndCatchesWrongDecisions(t *testing.T) {
	spec := frozen.DecisionLoop
	rtts, errs := localRounds(spec, 5, 300)
	if len(errs) > 0 || len(rtts) != 300 {
		t.Fatalf("%d rounds, errs %v", len(rtts), errs)
	}
	// A flush order arriving in a congestion round is off script.
	var cur atomic.Pointer[roundScript]
	cur.Store(&roundScript{n: 2, kind: roundCongest, confirm: true})
	g := &loopActor{conn: nopConn{}, keys: newLoopKeys(loopGuestDom), spec: spec, cur: &cur}
	g.guestEvent(g.keys.flushNow, "1")
	// So is a release with no confirm seen when the script says confirm.
	g.guestEvent(g.keys.release, "1")
	if g.wrong.Load() != 2 {
		t.Fatalf("wrong = %d, notes %v", g.wrong.Load(), g.notes())
	}
	// And targets that are not what the published weights demand.
	s := nextRoundOfKind(spec, roundWeights)
	cur.Store(s)
	g.guestEvent(g.keys.t0, s.t0)
	g.guestEvent(g.keys.t1, "0.9999")
	if g.wrong.Load() != 3 {
		t.Fatalf("wrong = %d, notes %v", g.wrong.Load(), g.notes())
	}
}

type nopConn struct{}

func (nopConn) Write(string, string) error          { return nil }
func (nopConn) Read(string) (string, error)         { return "", nil }
func (nopConn) publish3([3]string, [3]string) error { return nil }
func (nopConn) Watch(string, func(string, string)) (store.WatchID, error) {
	return 0, nil
}

func nextRoundOfKind(spec loopSpec, kind roundKind) *roundScript {
	rng := stats.NewStream(1, "bench/test")
	for n := 0; ; n++ {
		if s := nextRound(n, spec, rng); s.kind == kind {
			return s
		}
	}
}

func TestCompareRefusesDifferentMachinesAndConstants(t *testing.T) {
	a := newStamp(runCtx{seed: 7, seconds: 10, consts: frozen})
	b := a
	if err := comparableStamps(a, b); err != nil {
		t.Fatalf("identical stamps refused: %v", err)
	}
	b.NProc++
	if err := comparableStamps(a, b); err == nil || !strings.Contains(err.Error(), "machine classes differ") {
		t.Errorf("different core count accepted: %v", err)
	}
	b = a
	b.Constants.HotPath.BatchOps = 32
	if err := comparableStamps(a, b); err == nil || !strings.Contains(err.Error(), "constants differ") {
		t.Errorf("different constants accepted: %v", err)
	}
	b = a
	b.Seed = 8
	if err := comparableStamps(a, b); err == nil {
		t.Error("different seeds accepted")
	}
	if w := worse(hostTime[0], 100, 80); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("throughput 100 -> 80 is %v worse", w)
	}
	if w := worse(hostTime[1], 100, 80); math.Abs(w+0.2) > 1e-12 {
		t.Errorf("latency 100 -> 80 is %v worse", w)
	}
}

// TestGates pins the harness's per-workload bounds to issue 11's table and
// the set-up floor: nothing is exempt, a small absolute difference in a
// millisecond set-up is no difference, a large one still is.
func TestGates(t *testing.T) {
	sim1, sim3 := *findWorkload("flush_burst_1k"), *findWorkload("scale_10k_50h")
	hot := *findWorkload("wire_hotpath")
	for _, c := range []struct {
		def    workloadDef
		metric string
		bound  float64
	}{
		{sim1, "work_per_s", 0.10}, {sim3, "work_per_s", 0.15},
		{sim1, "latency_p50_us", 0.001}, {sim3, "latency_p99_us", 0.001},
		{hot, "work_per_s", 0.10}, {hot, "latency_p50_us", 0.10}, {hot, "latency_p99_us", 0.15},
		{sim1, "latency_quiet_us", 0.001}, {hot, "latency_quiet_us", 0.10},
		{hot, "setup_s", 0.25}, {sim3, "setup_s", 0.25},
	} {
		if g := gateFor(c.def, c.metric); g.Bound != c.bound {
			t.Errorf("%s/%s: bound %v, issue 11 says %v", c.def.Name, c.metric, g.Bound, c.bound)
		}
	}
	setup := gateFor(hot, "setup_s")
	if setup.FloorS != 0.05 {
		t.Fatalf("set-up floor %v s", setup.FloorS)
	}
	if setup.exceeded(0.48, 0.004) {
		t.Error("a 4 ms spread on a 9 ms set-up is under the floor")
	}
	if !setup.exceeded(0.30, 0.15) {
		t.Error("a 0.15 s, 30 % spread on a 0.5 s set-up is over both the floor and the bound")
	}
	if setup.exceeded(0.20, 0.10) {
		t.Error("20 % is inside the 25 % bound")
	}
	if g := gateFor(hot, "work_per_s"); g.FloorS != 0 || !g.exceeded(0.11, 1) {
		t.Error("only set-up has a floor")
	}
	for k := range ungated {
		name, metric, _ := strings.Cut(k, "/")
		def := findWorkload(name)
		if def == nil || gateFor(*def, metric).Ungated == "" {
			t.Errorf("ungated entry %q names no workload/metric", k)
		}
	}
}

func TestCompareAppliesGates(t *testing.T) {
	// The gates themselves, without the reference box's not-gated list.
	saved := ungated
	ungated = map[string]string{}
	defer func() { ungated = saved }()
	dir := t.TempDir()
	file := func(name string, work, setup float64, p99 uint64) string {
		r := newReport(runCtx{seed: 7, seconds: 10, consts: frozen})
		r.Results = []*result{{
			Workload: "wire_hotpath", Correct: true, Attempted: 1,
			EndToEnd: metricSet{"work_per_s": work, "latency_p50_us": 100, "latency_p99_us": 500, "latency_quiet_us": 70, "setup_s": setup},
			Exact:    map[string]uint64{"model.io_p99_ns": p99},
		}}
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 400e3, 0.004, 14)
	// Set-up doubled but by 4 ms, throughput 9 % down: inside every gate.
	if err := compareFiles(base, file("b.json", 364e3, 0.008, 14)); err != nil {
		t.Errorf("differences inside the gates refused: %v", err)
	}
	if err := compareFiles(base, file("c.json", 350e3, 0.004, 14)); err == nil || !strings.Contains(err.Error(), "wire_hotpath/work_per_s") {
		t.Errorf("12.5 %% fewer ops per second passed the 10 %% gate: %v", err)
	}
	ungated = map[string]string{"wire_hotpath/work_per_s": "too noisy on this box"}
	if err := compareFiles(base, dir+"/c.json"); err != nil {
		t.Errorf("a metric listed as not gated failed the comparison: %v", err)
	}
	if err := compareFiles(base, file("d.json", 400e3, 0.104, 14)); err == nil || !strings.Contains(err.Error(), "wire_hotpath/setup_s") {
		t.Errorf("0.1 s more set-up passed: %v", err)
	}
	if err := compareFiles(base, file("e.json", 400e3, 0.004, 15)); err == nil || !strings.Contains(err.Error(), "model.io_p99_ns") {
		t.Errorf("a moved exact count passed: %v", err)
	}
}

// --- Traced pass ------------------------------------------------------------

// readSpans loads a span dump and checks its shape: well-formed lines,
// every non-root span under a live parent that contains it.
func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			continue
		}
		// A child may outlive its parent (the guest's ack callback is still
		// returning when the manager has already seen the ack and closed
		// the round), but it never starts before it.
		if p, ok := byID[s.Parent]; !ok || s.StartNS < p.StartNS {
			t.Errorf("span %d (%s) has no live parent that started before it", s.ID, s.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans", roots)
	}
	return spans
}

func TestTracedSimPassTiny(t *testing.T) {
	for _, name := range []string{"flush_burst_1k", "scale_10k_50h"} {
		ctx := tinyCtx(t)
		ctx.trace = true
		res, err := findWorkload(name).run(ctx)
		wantCorrect(t, res, err)
		if bad := res.PerLayer.unknown(perLayer); len(bad) > 0 {
			t.Errorf("%s: undefined per-layer metrics %v", name, bad)
		}
		for _, want := range []string{"sim.events", "sim.ns_per_event", "store.ns_per_write_w1", "core.flush_orders",
			"core.us_per_tick", "hypervisor.monitor_snapshot_ns", "blkio.ns_per_request", "device.ns_per_request",
			"trace.records", "model.io_mbps", "proc.gomaxprocs"} {
			if !(res.PerLayer[want] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, want, res.PerLayer[want])
			}
		}
		if name == "scale_10k_50h" && !(res.PerLayer["cluster.parallel_speedup"] > 0) {
			t.Errorf("cluster.parallel_speedup = %v", res.PerLayer["cluster.parallel_speedup"])
		}
		spans := readSpans(t, res.SpanDump)
		slices, snapshots := 0, 0
		for _, s := range spans {
			if s.Name == "sim.slice" {
				slices++
				if s.Counters["sim.events"] > 0 {
					snapshots++
				}
			}
		}
		if want := ctx.seconds * ctx.consts.FlushBurst.SimSecPerSecond; name == "flush_burst_1k" && slices != want {
			t.Errorf("%d slice spans for %d simulated seconds", slices, want)
		}
		if snapshots != slices || slices == 0 {
			t.Errorf("%s: %d of %d slices carry a counter snapshot", name, snapshots, slices)
		}
	}
}

func TestWireProbesAndTracedRounds(t *testing.T) {
	ctx := tinyCtx(t)
	tr := newTracer("wire_decision_loop")
	root := tr.begin(0, "pass", 0)
	pl := metricSet{}
	if err := wireProbes(ctx, pl, probeShape{keys: 11, valueBytes: 4, domains: 1}, tr, root); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"netstore.write_rtt_p50_us", "netstore.batch_rtt_p50_us", "netstore.watch_lag_p50_us",
		"netstore.watch_lag_p99_us", "store.ns_per_write_w0", "store.ns_per_write_w16", "store.ns_per_cursor_write"} {
		if !(pl[want] > 0) {
			t.Errorf("%s = %v, want > 0", want, pl[want])
		}
	}
	spec := ctx.consts.DecisionLoop
	l, err := newWireLoop(ctx.outDir, spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	out := l.run(spec, ctx.seed, 100*time.Millisecond, tr, root)
	l.close()
	if out.completed == 0 || out.completed != out.attempted || len(out.errs) > 0 {
		t.Fatalf("traced rounds: %d of %d, %v", out.completed, out.attempted, out.errs)
	}
	tr.end(root, nil)
	path, err := tr.dump(ctx.outDir)
	if err != nil {
		t.Fatal(err)
	}
	// Spans of one decision round share its identifier.
	perRound := map[int]map[string]int{}
	for _, s := range readSpans(t, path) {
		if s.Round > 0 {
			if perRound[s.Round] == nil {
				perRound[s.Round] = map[string]int{}
			}
			perRound[s.Round][s.Name]++
		}
	}
	first := perRound[1] // a flush round: publish, order, two acks
	if first["round"] != 1 || first["netstore.write"] != 4 || first["watch.callback.mgr"] == 0 || first["watch.callback.guest"] == 0 {
		t.Errorf("round 1 spans: %v", first)
	}
	if bad := pl.unknown(perLayer); len(bad) > 0 {
		t.Errorf("undefined per-layer metrics %v", bad)
	}
}
