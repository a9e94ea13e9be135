package iorchestra

// Golden decision-trace parity for the G-state subsystem
// (docs/GSTATES.md): a fixed-seed tiered population under sustained
// congestion pins the controller's admissions, demotion ladder and
// SLA-violation onsets as NDJSON, byte for byte, alongside the four
// per-system fixtures of golden_test.go. Regenerate intentionally with
//
//	go test -run TestGoldenGStateTraceParity -update .
//
// and review the fixture diff like code.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iorchestra/internal/gstate"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// goldenGStateDur covers admission, the full demotion ladder down to
// the tier floors, and several violation episodes.
const goldenGStateDur = 6 * Second

// tieredGoldenVM is the SLA experiment's congestion-prone profile: a
// declared tier plus eight readahead streams per guest.
func tieredGoldenVM(p *Platform, i int, tier gstate.Tier) {
	rt := p.NewTieredVM(tier, gstate.SLA{}, 2, 2, workload.CongestProneDisk())
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 8, 1<<30, 1<<20,
		p.Rng.Fork(fmt.Sprintf("gs%d", i)))
	ms.Start()
}

// goldenGStateScenario runs the balanced tier mix on IOrchestra with
// the G-state controller enabled (flush and congestion ride along;
// co-scheduling is the documented unsupported combination). Host
// dispatch concurrency is bounded so the weighted cgroup is the
// queueing point — the same setup the tiered experiments use.
func goldenGStateScenario(t testing.TB, seed uint64) *goldenTrace {
	t.Helper()
	p := NewPlatform(SystemIOrchestra, seed,
		WithTracing(goldenTraceCap),
		WithPolicies(Policies{Flush: true, Congestion: true, GState: true}),
		WithHostConfig(hypervisor.Config{MaxDeviceInFlight: 8}))
	for i, tier := range []gstate.Tier{
		gstate.Gold, gstate.Gold, gstate.Silver, gstate.Silver, gstate.Bronze, gstate.Bronze,
	} {
		tieredGoldenVM(p, i, tier)
	}
	p.RunFor(goldenGStateDur)
	if d := p.Trace.Dropped(); d > 0 {
		t.Fatalf("trace ring evicted %d records; raise goldenTraceCap", d)
	}
	g := &goldenTrace{}
	g.filter(p.Trace.Events())
	return g
}

var goldenGStatePath = filepath.Join("testdata", "golden", "gstate.ndjson")

// TestGoldenGStateTraceParity replays the fixed-seed tiered scenario
// and requires byte parity with the checked-in fixture — plus presence
// of the G-state decision kinds, so the fixture can never silently
// decay into one that exercises nothing.
func TestGoldenGStateTraceParity(t *testing.T) {
	g := goldenGStateScenario(t, goldenSeed)
	for _, kind := range []trace.Kind{
		trace.KindGStateAdmit, trace.KindGStateDemote, trace.KindGStateViolation,
	} {
		found := false
		for _, e := range g.records {
			if e.Kind == kind {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("golden gstate scenario emitted no %s records; the fixture would pin nothing", kind)
		}
	}
	got := encodeGolden(t, g)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenGStatePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGStatePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", goldenGStatePath, bytes.Count(got, []byte("\n")))
		return
	}
	want, err := os.ReadFile(goldenGStatePath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gstate decision trace diverged from %s:\n%s", goldenGStatePath, firstDiff(want, got))
	}
}

// TestGoldenGStateDetectsPerturbation guards the harness: a different
// seed must not reproduce the fixture.
func TestGoldenGStateDetectsPerturbation(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	want, err := os.ReadFile(goldenGStatePath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	got := encodeGolden(t, goldenGStateScenario(t, goldenSeed+1))
	if bytes.Equal(got, want) {
		t.Fatal("perturbed seed reproduced the golden gstate trace; harness is not sensitive")
	}
}
