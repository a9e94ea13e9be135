package iorchestra

// Golden decision-trace parity harness. For a fixed seed, every system's
// control-plane decision stream — flush orders, congestion verdicts,
// co-scheduling updates, degradation events, injected faults — is
// captured as NDJSON in testdata/golden/ and must be byte-identical on
// every run. The fixtures pin the behavior of the management module
// across refactors. A fixture keeps the decision records, numbered
// 0…n−1 in line order, and ends in one trailer line that counts the
// records of each kind it leaves out: raw store traffic (store.write,
// store.watch) and the per-request device path (dev.*). A change in
// that traffic alone fails parity on the trailer line, naming the kind
// and both counts; a change in what was decided, or when, fails on the
// first decision that moved.
//
// Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenTraceParity -update ./...
//
// and review the fixture diff like code.

import (
	"bytes"
	"encoding/json"
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
func goldenScenario(t testing.TB, sys System, faulted bool, seed uint64) *goldenTrace {
	t.Helper()
	g := &goldenTrace{}
	goldenRun(t, g, sys, faulted, seed, goldenFlushDur, func(p *Platform) {
		flushProneVM(p, 0)
		flushProneVM(p, 1)
		flushProneVM(p, 2)
	})
	goldenRun(t, g, sys, faulted, seed^0x9e3779b97f4a7c15, goldenMixedDur, func(p *Platform) {
		flushProneVM(p, 0)
		flushProneVM(p, 1)
		congestProneVM(p, 2)
		congestProneVM(p, 3)
	})
	return g
}

func goldenRun(t testing.TB, g *goldenTrace, sys System, faulted bool, seed uint64, dur Duration, populate func(*Platform)) {
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
	g.filter(p.Trace.Events())
}

// goldenFiltered are the kinds a fixture counts instead of keeping: raw
// store traffic and the bulky per-request device path.
var goldenFiltered = [...]trace.Kind{
	trace.KindStoreWrite, trace.KindStoreWatch,
	trace.KindDevQueue, trace.KindDevIssue, trace.KindDevComplete, trace.KindDevService,
}

// goldenTrace is what a fixture pins of its runs: the decision records,
// numbered 0…n−1 in line order, and a count per goldenFiltered kind.
type goldenTrace struct {
	records  []trace.Record
	filtered [len(goldenFiltered)]int
}

// filter appends a run's records, oldest first, to g: a decision record
// is kept and numbered by its line, any other is counted. (At, Seq) order
// is line order, so the numbering keeps the order the recorder's Seq
// gave; how much traffic came between decisions, which Seq also told,
// is left to the trailer's counts.
func (g *goldenTrace) filter(events []trace.Record) {
next:
	for _, e := range events {
		for i, k := range goldenFiltered {
			if e.Kind == k {
				g.filtered[i]++
				continue next
			}
		}
		e.Seq = uint64(len(g.records))
		g.records = append(g.records, e)
	}
}

// goldenPath names one fixture: testdata/golden/<system>[_faults].ndjson.
func goldenPath(sys System, faulted bool) string {
	name := strings.ToLower(sys.String())
	if faulted {
		name += "_faults"
	}
	return filepath.Join("testdata", "golden", name+".ndjson")
}

// goldenTrailer opens a fixture's last line, the one that counts each
// goldenFiltered kind: {"filtered":{"store.write":N,...}}.
const goldenTrailer = `{"filtered":`

// encodeGolden writes g as a fixture: one NDJSON line per record, then
// the trailer.
func encodeGolden(t testing.TB, g *goldenTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, g.records); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(goldenTrailer + "{")
	for i, k := range goldenFiltered {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%d", k, g.filtered[i])
	}
	buf.WriteString("}}\n")
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
				got := encodeGolden(t, goldenScenario(t, sys, faulted, goldenSeed))
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
// failure message. When that line is the trailer on both sides, every
// record matched, and it names each filtered kind whose count moved.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	n := min(len(wl), len(gl))
	for i := 0; i < n; i++ {
		if wl[i] == gl[i] {
			continue
		}
		if strings.HasPrefix(wl[i], goldenTrailer) && strings.HasPrefix(gl[i], goldenTrailer) {
			return "records identical; " + trailerDiff(wl[i], gl[i])
		}
		return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
	}
	return fmt.Sprintf("record count: golden %d lines, got %d lines", len(wl), len(gl))
}

// trailerDiff names each filtered kind whose count differs between two
// trailer lines, with both counts.
func trailerDiff(want, got string) string {
	var w, g struct{ Filtered map[string]int }
	if json.Unmarshal([]byte(want), &w) == nil && json.Unmarshal([]byte(got), &g) == nil {
		var moved []string
		for _, k := range goldenFiltered {
			if a, b := w.Filtered[string(k)], g.Filtered[string(k)]; a != b {
				moved = append(moved, fmt.Sprintf("%s: golden %d, got %d", k, a, b))
			}
		}
		if len(moved) > 0 {
			return "filtered " + strings.Join(moved, "; ")
		}
	}
	return fmt.Sprintf("trailer:\n  golden: %s\n  got:    %s", want, got)
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
	got := encodeGolden(t, goldenScenario(t, SystemIOrchestra, false, goldenSeed+1))
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
	got := encodeGolden(t, goldenScenario(t, SystemIOrchestra, false, goldenSeed))
	if bytes.Equal(got, want) {
		t.Fatal("inverted argmax order reproduced the golden trace; the fixtures do not pin the argmax winner order")
	}
}

// TestGoldenTrailerCountsTraffic guards the harness's numbering: one more
// store.write between two decisions leaves every record line as it was,
// and moves the trailer alone, which firstDiff reports by kind with both
// counts.
func TestGoldenTrailerCountsTraffic(t *testing.T) {
	run := func(writes int) []byte {
		events := []trace.Record{{Seq: 40, At: 1, Kind: trace.KindFlushOrder, Dom: 1}}
		for i := 0; i < writes; i++ {
			events = append(events, trace.Record{Seq: uint64(41 + i), At: 2, Kind: trace.KindStoreWrite, Dom: 1})
		}
		events = append(events, trace.Record{Seq: uint64(41 + writes), At: 3, Kind: trace.KindFlushSync, Dom: 1})
		g := &goldenTrace{}
		g.filter(events)
		return encodeGolden(t, g)
	}
	want, got := run(1), run(2)
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	if len(wl) != 4 || len(gl) != 4 { // two records, the trailer, and the final newline
		t.Fatalf("fixtures of %d and %d lines, want 4 each:\n%s\n%s", len(wl), len(gl), want, got)
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Errorf("record line %d moved: %s -> %s", i+1, wl[i], gl[i])
		}
		if wantSeq := fmt.Sprintf(`{"seq":%d,`, i); !bytes.HasPrefix(wl[i], []byte(wantSeq)) {
			t.Errorf("record line %d is %s, want it numbered %s", i+1, wl[i], wantSeq)
		}
	}
	if bytes.Equal(wl[2], gl[2]) {
		t.Fatalf("one more store.write left the trailer as it was: %s", wl[2])
	}
	const wantMsg = "records identical; filtered store.write: golden 1, got 2"
	if msg := firstDiff(want, got); msg != wantMsg {
		t.Errorf("firstDiff = %q, want %q", msg, wantMsg)
	}
}
