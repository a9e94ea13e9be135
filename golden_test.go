package iorchestra

// Golden decision-trace parity harness. For a fixed seed, every system's
// control-plane decision stream — flush orders, congestion verdicts,
// co-scheduling updates, degradation events, injected faults — is
// captured as NDJSON in testdata/golden/ and must be byte-identical on
// every run. The fixtures pin the behavior of the management module
// across refactors: a change that reorders a single store write or
// consumes one extra random draw shifts the global sequence numbers and
// fails parity.
//
// Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenTraceParity -update ./...
//
// and review the fixture diff like code.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iorchestra/internal/hypervisor"
	"iorchestra/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden decision-trace fixtures")

const (
	// goldenSeed fully determines every golden scenario.
	goldenSeed uint64 = 1315
	// goldenFlushDur covers two full burst-on/off cycles of the
	// flush-prone workload (1.5s on / 3.5s off): Algorithm 1 orders fire
	// in the off phase, and crash → heartbeat-miss → fallback → restore
	// cycles need the extra headroom.
	goldenFlushDur = 12 * Second
	// goldenMixedDur is enough for congestion verdicts and co-scheduling
	// updates (they fire within milliseconds under the 8-stream load) and
	// in the faulted variant reaches past the 4.1s driver restart so the
	// fallback → restore half of the cycle is pinned too.
	goldenMixedDur = 6 * Second
	// goldenFaultSpec exercises every fault family the injector knows
	// (docs/FAULTS.md) so the degradation machinery is pinned too. The
	// crash lands at the start of the flush workload's burst-off phase
	// and outlasts the heartbeat timeout, so the decision loops catch the
	// stale heartbeat and the fallback → penalty → restore cycle appears
	// in the fixture.
	goldenFaultSpec = "uncoop=0.25,crash=0.5@1600ms+2500ms,stucksync=0.4," +
		"watchdrop=0.05,watchdelay=2ms:0.15,stalewrite=0.03,member=3:6"
	// goldenTraceCap must retain the whole run: an evicted record would
	// silently shrink the fixture. goldenScenario fails if anything drops.
	goldenTraceCap = 1 << 19
)

// goldenScenario runs two fixed sub-populations on sys and concatenates
// their control-plane records. The flush part runs three flush-prone VMs
// alone — only with the device otherwise quiet do Algorithm 1 flush
// orders (and, in the faulted variant, heartbeat-miss fallback cycles)
// actually fire. The mixed part adds congestion-prone multi-stream VMs
// so Algorithm 2 verdicts and Sec. 3.3 co-scheduling updates appear.
func goldenScenario(t testing.TB, sys System, faulted bool, seed uint64) []trace.Record {
	t.Helper()
	flush := goldenRun(t, sys, faulted, seed, goldenFlushDur, func(p *Platform) {
		flushProneVM(p, 0)
		flushProneVM(p, 1)
		flushProneVM(p, 2)
	})
	mixed := goldenRun(t, sys, faulted, seed^0x9e3779b97f4a7c15, goldenMixedDur, func(p *Platform) {
		flushProneVM(p, 0)
		flushProneVM(p, 1)
		congestProneVM(p, 2)
		congestProneVM(p, 3)
	})
	return append(flush, mixed...)
}

func goldenRun(t testing.TB, sys System, faulted bool, seed uint64, dur Duration, populate func(*Platform)) []trace.Record {
	t.Helper()
	opts := []Option{WithTracing(goldenTraceCap)}
	if faulted {
		spec, err := ParseFaultSpec(goldenFaultSpec)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithFaults(spec))
	}
	p := NewPlatform(sys, seed, opts...)
	populate(p)
	p.RunFor(dur)
	if d := p.Trace.Dropped(); d > 0 {
		t.Fatalf("trace ring evicted %d records; raise goldenTraceCap", d)
	}
	return filterGolden(p.Trace.Events())
}

// filterGolden keeps the control-plane decision records and drops the
// bulky per-request device path (dev.*) and raw store traffic (store.*).
// The retained records keep their original Seq values, which are stamped
// across ALL records — so the fixture still pins the full interleaving of
// store writes, watch fires and device events between decisions.
func filterGolden(events []trace.Record) []trace.Record {
	out := make([]trace.Record, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case trace.KindStoreWrite, trace.KindStoreWatch,
			trace.KindDevQueue, trace.KindDevIssue,
			trace.KindDevComplete, trace.KindDevService:
			continue
		}
		out = append(out, e)
	}
	return out
}

// goldenPath names one fixture: testdata/golden/<system>[_faults].ndjson.
func goldenPath(sys System, faulted bool) string {
	name := strings.ToLower(sys.String())
	if faulted {
		name += "_faults"
	}
	return filepath.Join("testdata", "golden", name+".ndjson")
}

func encodeNDJSON(t testing.TB, events []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceParity replays the fixed-seed scenario on all four
// systems, clean and faulted, and requires the NDJSON decision trace to
// match the checked-in fixture byte for byte.
func TestGoldenTraceParity(t *testing.T) {
	for _, sys := range Systems() {
		for _, faulted := range []bool{false, true} {
			sys, faulted := sys, faulted
			name := strings.ToLower(sys.String())
			if faulted {
				name += "_faults"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				got := encodeNDJSON(t, goldenScenario(t, sys, faulted, goldenSeed))
				path := goldenPath(sys, faulted)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d records)", path, bytes.Count(got, []byte("\n")))
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing fixture (run with -update to create): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("decision trace diverged from %s:\n%s", path, firstDiff(want, got))
				}
			})
		}
	}
}

// firstDiff locates the first differing NDJSON line for a readable
// failure message.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("record count: golden %d lines, got %d lines", len(wl), len(gl))
}

// TestGoldenHarnessDetectsPerturbation guards the harness itself: a
// different seed must NOT reproduce the fixture. If it did, the scenario
// would be too inert to catch a real behavior change.
func TestGoldenHarnessDetectsPerturbation(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	want, err := os.ReadFile(goldenPath(SystemIOrchestra, false))
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	got := encodeNDJSON(t, goldenScenario(t, SystemIOrchestra, false, goldenSeed+1))
	if bytes.Equal(got, want) {
		t.Fatal("perturbed seed reproduced the golden trace; harness is not sensitive")
	}
}

// TestGoldenCatchesIndexOrderDrift guards Algorithm 1's ranking: with
// BestDirty's comparison deliberately inverted (argmin, ties to the
// highest dom), the same seed must NOT reproduce the fixture. This pins
// that the fixtures encode the argmax's exact winner order — a ranking
// that silently drifted from it would fail trace parity rather than
// ship.
func TestGoldenCatchesIndexOrderDrift(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	want, err := os.ReadFile(goldenPath(SystemIOrchestra, false))
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	hypervisor.DirtyOrderInvertedForTest = true
	defer func() { hypervisor.DirtyOrderInvertedForTest = false }()
	got := encodeNDJSON(t, goldenScenario(t, SystemIOrchestra, false, goldenSeed))
	if bytes.Equal(got, want) {
		t.Fatal("inverted argmax order reproduced the golden trace; the fixtures do not pin the argmax winner order")
	}
}
