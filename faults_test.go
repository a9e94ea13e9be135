package iorchestra

// Fault-injection acceptance tests (ISSUE PR 2): with 100% uncooperative
// guests IOrchestra must match Baseline throughput within 5%, and every
// injected timeout/fallback must surface as a typed trace event that
// survives the NDJSON export cmd/iorchestra-trace consumes.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"iorchestra/internal/core"
	"iorchestra/internal/fault"
	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// faultFSVM is flushProneVM returning the workload for throughput
// accounting.
func faultFSVM(p *Platform, i int) *workload.FS {
	rt := p.NewVM(1, 1, workload.FlushProneDisk(0.2))
	fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FlushProneFS(2), p.Rng.Fork(fmt.Sprintf("fs%d", i)))
	fs.Start()
	return fs
}

func runFaultPoint(t *testing.T, sys System, spec FaultSpec) float64 {
	t.Helper()
	p := NewPlatform(sys, 42,
		WithPolicies(Policies{Flush: true, Congestion: true}),
		WithFaults(spec))
	var written float64
	var fss []*workload.FS
	for i := 0; i < 4; i++ {
		fss = append(fss, faultFSVM(p, i))
	}
	p.RunFor(8 * Second)
	for _, fs := range fss {
		written += fs.WrittenBytes()
	}
	return written
}

// With every guest uncooperative the manager has nobody to manage:
// IOrchestra must degrade to Baseline, not below it.
func TestFullyUncooperativeMatchesBaseline(t *testing.T) {
	spec := FaultSpec{Uncoop: 1}
	base := runFaultPoint(t, SystemBaseline, spec)
	io := runFaultPoint(t, SystemIOrchestra, spec)
	if base == 0 {
		t.Fatal("baseline wrote nothing")
	}
	if delta := math.Abs(io-base) / base; delta > 0.05 {
		t.Fatalf("100%% uncoop: IOrchestra %.1f MB vs Baseline %.1f MB (%.1f%% apart, want <= 5%%)",
			io/1e6, base/1e6, delta*100)
	}
}

// assertCountersMirrorTrace requires, on a traced platform, that the
// recorder's lifetime count of every mirrored kind equals the Counters
// field reporting it. The pairing is stated here independently of
// Manager.Counters, so a mis-wired line there fails. Relieves is an
// upper bound: a release is counted when decided and traced after its
// stagger, so a run may end with records still pending.
func assertCountersMirrorTrace(t *testing.T, p *Platform) {
	t.Helper()
	c := p.Manager.Counters()
	for _, m := range []struct {
		kind trace.Kind
		n    uint64
	}{
		{trace.KindFlushOrder, c.FlushNotices},
		{trace.KindFlushTimeout, c.FlushTimeouts},
		{trace.KindCongestVeto, c.Vetoes},
		{trace.KindCongestConfirm, c.Confirms},
		{trace.KindReleaseRetry, c.ReleaseRetries},
		{trace.KindReleaseTimeout, c.ReleaseTimeouts},
		{trace.KindHoldTimeout, c.HoldTimeouts},
		{trace.KindCoschedUpdate, c.CoschedRuns},
		{trace.KindGStateDemote, c.GStateDemotes},
		{trace.KindGStatePromote, c.GStatePromotes},
		{trace.KindGStateViolation, c.SLAViolations},
		{trace.KindGStateAdmit, c.GStateAdmits},
		{trace.KindGStateDefer, c.GStateDefers},
		{trace.KindHeartbeatMiss, c.HeartbeatMisses},
		{trace.KindFallbackEnter, c.Fallbacks},
		{trace.KindFallbackExit, c.Restores},
	} {
		if got := p.Trace.Count(m.kind); got != m.n {
			t.Errorf("%s events = %d, counter = %d", m.kind, got, m.n)
		}
	}
	if got := p.Trace.Count(trace.KindCongestRelease); got > c.Relieves {
		t.Errorf("congest.release events = %d exceed Relieves = %d", got, c.Relieves)
	}
}

// Every injected fault and every degradation decision must appear as a
// typed trace event, and the stream must survive the NDJSON cycle.
func TestInjectedTimeoutsAreTypedTraceEvents(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 42,
		WithTracing(0),
		WithPolicies(Policies{Flush: true}),
		WithManagerConfig(core.ManagerConfig{
			FlushTimeout:    100 * sim.Millisecond,
			FlushCooldown:   50 * sim.Millisecond,
			FallbackPenalty: sim.Hour, // keep the guests demoted for assertions
		}),
		WithFaults(FaultSpec{StuckSyncProb: 1}))
	for i := 0; i < 4; i++ {
		faultFSVM(p, i)
	}
	p.RunFor(10 * Second)
	if p.Faults == nil || p.Faults.Count("stucksync") == 0 {
		t.Fatal("no stuck syncs injected")
	}
	requireKinds(t, p.Trace, trace.KindFaultInject, trace.KindFlushTimeout,
		trace.KindFallbackEnter)
	if p.Manager.Counters().FlushTimeouts == 0 || p.Manager.Counters().Fallbacks == 0 {
		t.Fatalf("degradation counters empty: timeouts=%d fallbacks=%d",
			p.Manager.Counters().FlushTimeouts, p.Manager.Counters().Fallbacks)
	}
	// Counters and trace agree: every decision the manager counted is a
	// typed event in the stream.
	assertCountersMirrorTrace(t, p)
	// NDJSON round trip preserves the typed events.
	var buf bytes.Buffer
	if err := p.Trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]uint64{}
	for _, e := range back {
		counts[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindFaultInject, trace.KindFlushTimeout, trace.KindFallbackEnter} {
		if counts[k] == 0 {
			t.Fatalf("no %s events after NDJSON round trip", k)
		}
	}
}

// A crashed-and-restarted driver round-trips through fallback.enter and
// fallback.exit, driven end-to-end by the -faults grammar.
func TestCrashRestartRoundTripViaSpec(t *testing.T) {
	spec, err := fault.ParseSpec("crash=1@1s+2s")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(SystemIOrchestra, 42, WithTracing(0),
		WithPolicies(Policies{Flush: true}), WithFaults(spec))
	fs := faultFSVM(p, 0)
	_ = fs
	p.RunFor(6 * Second)
	if p.Faults.Count("crash") != 1 || p.Faults.Count("restart") != 1 {
		t.Fatalf("crash/restart schedule wrong: %v", p.Faults.Counts())
	}
	if p.Manager.Counters().Fallbacks == 0 || p.Manager.Counters().Restores == 0 {
		t.Fatalf("fallbacks=%d restores=%d, want both > 0",
			p.Manager.Counters().Fallbacks, p.Manager.Counters().Restores)
	}
	requireKinds(t, p.Trace, trace.KindHeartbeatMiss,
		trace.KindFallbackEnter, trace.KindFallbackExit)
}
