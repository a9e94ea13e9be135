package iorchestra

// End-to-end decision-trace coverage: a traced platform run must emit the
// paper's three decision families (ISSUE acceptance criterion) — flush
// control (Algorithm 1), congestion control (Algorithm 2) and
// co-scheduling (Sec. 3.3) — and the resulting stream must survive the
// NDJSON export/import cycle that cmd/iorchestra-trace consumes.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"iorchestra/internal/trace"
	"iorchestra/internal/workload"
)

// flushProneVM is the Fig. 8 profile: a small cache with low dirty ratios
// under a write-heavy FileBench fileserver piles up dirty pages fast.
func flushProneVM(p *Platform, i int) {
	rt := p.NewVM(1, 1, workload.FlushProneDisk(0.2))
	fs := workload.NewFS(p.Kernel, rt.G, rt.G.Disks()[0], workload.FlushProneFS(2), p.Rng.Fork(fmt.Sprintf("fs%d", i)))
	fs.Start()
}

// congestProneVM is the Sec. 2 motivation profile: eight readahead streams
// against a small ring cross the 7/8 threshold without real congestion.
func congestProneVM(p *Platform, i int) {
	rt := p.NewVM(4, 4, workload.CongestProneDisk())
	ms := workload.NewMultiStream(p.Kernel, rt.G, rt.G.Disks()[0], 8, 1<<30, 1<<20,
		p.Rng.Fork(fmt.Sprintf("ms%d", i)))
	ms.Start()
}

func requireKinds(t *testing.T, rec *trace.Recorder, kinds ...trace.Kind) {
	t.Helper()
	for _, k := range kinds {
		if rec.Count(k) == 0 {
			t.Errorf("no %s events recorded; counts = %v", k, rec.Counts())
		}
	}
}

func TestTracedFlushDecisions(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 42, WithTracing(0),
		WithPolicies(Policies{Flush: true}))
	for i := 0; i < 4; i++ {
		flushProneVM(p, i)
	}
	p.RunFor(30 * Second)
	requireKinds(t, p.Trace, trace.KindFlushOrder, trace.KindFlushSync,
		trace.KindStoreWrite, trace.KindStoreWatch)
	// Every flush order must carry the evidence Algorithm 1 acted on.
	for _, e := range p.Trace.Events() {
		if e.Kind == trace.KindFlushOrder {
			if e.NrDirty <= 0 || e.Disk == "" || e.Dom == 0 {
				t.Fatalf("flush.order missing decision evidence: %+v", e)
			}
		}
	}
}

func TestTracedCongestionDecisions(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 42, WithTracing(0),
		WithPolicies(Policies{Congestion: true}))
	for i := 0; i < 2; i++ {
		congestProneVM(p, i)
	}
	p.RunFor(5 * Second)
	requireKinds(t, p.Trace, trace.KindCongestEngage, trace.KindQueueRelease)
	if p.Trace.Count(trace.KindCongestVeto)+p.Trace.Count(trace.KindCongestConfirm) == 0 {
		t.Errorf("no host congestion verdicts; counts = %v", p.Trace.Counts())
	}
}

func TestTracedCoschedDecisions(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 42, WithTracing(0))
	for i := 0; i < 2; i++ {
		congestProneVM(p, i)
	}
	p.RunFor(5 * Second)
	requireKinds(t, p.Trace, trace.KindCoschedUpdate, trace.KindDevComplete)
}

// TestTraceNDJSONExportImport: the full stream round-trips through the
// NDJSON format bit-exactly and the summary names the decisions, which is
// what cmd/iorchestra-trace prints.
func TestTraceNDJSONExportImport(t *testing.T) {
	p := NewPlatform(SystemIOrchestra, 7, WithTracing(4096),
		WithPolicies(Policies{Congestion: true}))
	congestProneVM(p, 0)
	p.RunFor(3 * Second)

	events := p.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no events retained")
	}
	var buf bytes.Buffer
	if err := p.Trace.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("NDJSON round trip mismatch: %d events out, %d back", len(events), len(back))
	}
	sum := trace.Summarize(back)
	if sum.Total != len(events) {
		t.Fatalf("summary total = %d, want %d", sum.Total, len(events))
	}
	if text := sum.Format(); len(text) == 0 {
		t.Fatal("empty summary")
	}
}
