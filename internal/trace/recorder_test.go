package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// TestRecorderSameTickOrdering: events recorded at the same sim tick keep
// their recording order — Seq is strictly increasing and Events() returns
// them (At, Seq)-sorted without any re-sort.
func TestRecorderSameTickOrdering(t *testing.T) {
	k := sim.NewKernel()
	r := trace.NewRecorder(k, 16)
	kinds := []trace.Kind{trace.KindFlushOrder, trace.KindCongestVeto, trace.KindCoschedUpdate, trace.KindStoreWrite}
	for i, kd := range kinds {
		r.Record(trace.Record{Kind: kd, Dom: i})
	}
	evs := r.Events()
	if len(evs) != len(kinds) {
		t.Fatalf("Events len = %d, want %d", len(evs), len(kinds))
	}
	for i, e := range evs {
		if e.At != 0 {
			t.Fatalf("event %d At = %v, want 0 (same tick)", i, e.At)
		}
		if e.Seq != uint64(i) {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, i)
		}
		if e.Kind != kinds[i] {
			t.Fatalf("event %d Kind = %s, want %s (stable order)", i, e.Kind, kinds[i])
		}
	}
}

// TestRecorderRingEviction: the ring keeps the newest capacity events,
// oldest-first, while lifetime counters stay exact.
func TestRecorderRingEviction(t *testing.T) {
	k := sim.NewKernel()
	r := trace.NewRecorder(k, 4)
	for i := 0; i < 10; i++ {
		r.Record(trace.Record{Kind: trace.KindStoreWrite, Dom: i})
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if got := r.Count(trace.KindStoreWrite); got != 10 {
		t.Fatalf("Count = %d, want 10 (lifetime, not ring)", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
}

// TestNDJSONRoundTrip: records with every field populated survive the
// encode/decode cycle byte-exactly.
func TestNDJSONRoundTrip(t *testing.T) {
	in := []trace.Record{
		{Seq: 0, At: 1_000_000, Kind: trace.KindStoreWrite, Dom: 1,
			Path: store.DiskPath(1, "xvda", "nr_dirty"), Value: "512"},
		{Seq: 1, At: 1_000_000, Kind: trace.KindFlushOrder, Dom: 1, Disk: "xvda",
			NrDirty: 512, DeviceBps: 12.5e6, UtilFrac: 0.03},
		{Seq: 2, At: 2_500_000, Kind: trace.KindCongestVeto, Dom: 2, Disk: "xvda",
			QueueDepth: 7, DevPending: 3},
		{Seq: 3, At: 2_500_000, Kind: trace.KindCoschedUpdate, Dom: 0,
			Weight: 1.75, CoreLatency: []float64{0.001, 0.004}},
		{Seq: 4, At: 3_000_000, Kind: trace.KindDevComplete, Dom: 3, Write: true,
			Size: 1 << 20, Latency: 8_100_000},
		{Seq: 5, At: 3_000_001, Kind: trace.KindCoschedMove, Dom: 3, Socket: 1, Weight: 2},
	}
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := trace.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestReadNDJSONSkipsBlankAndReportsBadLines documents the loader's error
// contract: blank lines are fine, malformed ones abort with a line number.
func TestReadNDJSONSkipsBlankAndReportsBadLines(t *testing.T) {
	good := `{"seq":0,"at":1,"kind":"flush.order","dom":1}

{"seq":1,"at":2,"kind":"flush.sync","dom":1}
`
	out, err := trace.ReadNDJSON(strings.NewReader(good))
	if err != nil || len(out) != 2 {
		t.Fatalf("ReadNDJSON = %d records, %v", len(out), err)
	}
	_, err = trace.ReadNDJSON(strings.NewReader(good + "{not json}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("bad line error = %v, want line 4", err)
	}
}

// TestRecorderDeviceLatencyFeed: dev.complete records of every domain
// feed the one host-path histogram behind LatencyPercentile; no other
// kind does.
func TestRecorderDeviceLatencyFeed(t *testing.T) {
	k := sim.NewKernel()
	r := trace.NewRecorder(k, 8)
	if got := r.LatencyPercentile(99); got != 0 {
		t.Fatalf("LatencyPercentile with no completions = %v, want 0", got)
	}
	r.Record(trace.Record{Kind: trace.KindDevService, Dom: 3, Latency: sim.Second})
	for i := 1; i <= 4; i++ {
		r.Record(trace.Record{Kind: trace.KindDevComplete, Dom: 2 + i%2,
			Latency: sim.Time(i) * sim.Millisecond})
	}
	if got := r.LatencyPercentile(50); got < 19*sim.Millisecond/10 || got > 21*sim.Millisecond/10 {
		t.Fatalf("p50 = %v, want ~2ms (both domains, dev.complete only)", got)
	}
	if got := r.LatencyPercentile(100); got < 38*sim.Millisecond/10 || got > 42*sim.Millisecond/10 {
		t.Fatalf("p100 = %v, want ~4ms (dev.service must not feed it)", got)
	}
}

// TestCountOnlyRecorder: a count-only recorder keeps exact lifetime
// counts, retains nothing and calls no sink; OrCountOnly hands a real
// recorder through untouched.
func TestCountOnlyRecorder(t *testing.T) {
	r := trace.NewCountOnly()
	r.SetSink(func(trace.Record) { t.Fatal("count-only recorder called its sink") })
	for i := 0; i < 3; i++ {
		r.Record(trace.Record{Kind: trace.KindFlushOrder, Dom: i})
	}
	r.Record(trace.Record{Kind: trace.KindCongestVeto, Dom: 1})
	if got := r.Count(trace.KindFlushOrder); got != 3 {
		t.Fatalf("Count(flush.order) = %d, want 3", got)
	}
	if got := r.Count(trace.KindCongestVeto); got != 1 {
		t.Fatalf("Count(congest.veto) = %d, want 1", got)
	}
	if got := r.Recorded(); got != 4 {
		t.Fatalf("Recorded = %d, want 4", got)
	}
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("Events = %v, want none (no ring)", evs)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0 (nothing was ever retained)", got)
	}
	if got := trace.OrCountOnly(nil); got == nil || len(got.Events()) != 0 {
		t.Fatalf("OrCountOnly(nil) = %v, want a count-only recorder", got)
	}
	full := trace.NewRecorder(sim.NewKernel(), 4)
	if trace.OrCountOnly(full) != full {
		t.Fatal("OrCountOnly replaced a non-nil recorder")
	}
}

// TestStreamRecorder: a stream stamps and counts like a ring recorder,
// hands every record to its sink, and retains nothing — with no sink the
// record is counted and gone.
func TestStreamRecorder(t *testing.T) {
	k := sim.NewKernel()
	r := trace.NewStream(k)
	r.Record(trace.Record{Kind: trace.KindWireConn, Value: "connect"}) // nobody listening yet
	var got []trace.Record
	r.SetSink(func(rec trace.Record) { got = append(got, rec) })
	k.After(5*sim.Microsecond, func() {
		r.Record(trace.Record{Kind: trace.KindStoreWrite, Dom: 3, Path: "/k", Value: "v"})
		r.Record(trace.Record{Kind: trace.KindStoreWatch, Dom: 3, Path: "/k", Value: "v"})
	})
	k.Run()
	want := []trace.Record{
		{Seq: 1, At: 5 * sim.Microsecond, Kind: trace.KindStoreWrite, Dom: 3, Path: "/k", Value: "v"},
		{Seq: 2, At: 5 * sim.Microsecond, Kind: trace.KindStoreWatch, Dom: 3, Path: "/k", Value: "v"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the sink got %+v, want %+v", got, want)
	}
	if r.Recorded() != 3 || r.Count(trace.KindWireConn) != 1 || r.Count(trace.KindStoreWrite) != 1 {
		t.Fatalf("Recorded = %d, counts = %v", r.Recorded(), r.Counts())
	}
	if evs := r.Events(); len(evs) != 0 || r.Dropped() != 0 {
		t.Fatalf("a stream retained %v (Dropped %d)", evs, r.Dropped())
	}
}

// TestSummarizeFormat: the CLI summary names each decision family and the
// per-domain completion latency percentiles.
func TestSummarizeFormat(t *testing.T) {
	evs := []trace.Record{
		{Seq: 0, At: 1, Kind: trace.KindFlushOrder, Dom: 3, Disk: "xvda"},
		{Seq: 1, At: 2, Kind: trace.KindFlushSync, Dom: 3, Disk: "xvda"},
		{Seq: 2, At: 3, Kind: trace.KindCongestVeto, Dom: 3},
		{Seq: 3, At: 4, Kind: trace.KindDevComplete, Dom: 3, Latency: 8_100_000},
	}
	s := trace.Summarize(evs)
	if s.Total != 4 || len(s.Domains) != 1 || s.Domains[0].Dom != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	text := s.Format()
	for _, want := range []string{"dom3:", "1 flush orders", "1 flush syncs",
		"1 congest vetoes", "1 completions"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
}
