package federation

import (
	"reflect"
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// TestBeatObservedAndEntryRemoved pins the liveness decoding clusterd's
// watch and expire roles run on every registry notification: only a
// heartbeat write is a beat, and only an empty value on the entry path
// itself is a removal.
func TestBeatObservedAndEntryRemoved(t *testing.T) {
	root := store.HypervisorsPath()
	cases := []struct {
		name        string
		path, value string
		beat        string // host id BeatObserved reports, "" for none
		removed     string // host id EntryRemoved reports, "" for none
	}{
		{"heartbeat key", root + "/hostA/heartbeat", "7", "hostA", ""},
		{"non-heartbeat key", root + "/hostA/util", "0.5", "", ""},
		{"tier census key", root + "/hostA/tiers/gold", "1", "", ""},
		{"entry removal", root + "/hostA", "", "", "hostA"},
		{"non-empty value on the entry path", root + "/hostA", "x", "", ""},
		{"foreign prefix", store.ClusterGuestKey("vm1", "host"), "hostA", "", ""},
		{"the root itself", root, "", "", ""},
		{"prefix-sharing id", root + "x/hostA/heartbeat", "7", "", ""},
		{"prefix-sharing entry removal", root + "x/hostA", "", "", ""},
	}
	for _, c := range cases {
		id, ok := BeatObserved(root, c.path)
		if ok != (c.beat != "") || (ok && id != c.beat) {
			t.Errorf("%s: BeatObserved(%q) = %q, %v; want %q", c.name, c.path, id, ok, c.beat)
		}
		id, ok = EntryRemoved(root, c.path, c.value)
		if ok != (c.removed != "") || (ok && id != c.removed) {
			t.Errorf("%s: EntryRemoved(%q, %q) = %q, %v; want %q", c.name, c.path, c.value, id, ok, c.removed)
		}
	}
}

// TestTierCensusPublishAndRead: a host's per-tier guest census written
// under /tiers (clusterd's -tiers path) reads back through
// ReadHostStats, and a host that publishes none reads as untiered.
func TestTierCensusPublishAndRead(t *testing.T) {
	v := LocalView{St: store.New(sim.NewKernel(), 30*sim.Microsecond)}
	PublishHostStatics(v, "ha", "", 6)
	PublishHostStatics(v, "hb", "", 6)
	want := map[string]int{"gold": 1, "silver": 0, "bronze": 1}
	PublishTierCounts(v, "ha", want)

	hs := ReadHostStats(v, "ha")
	if !reflect.DeepEqual(hs.TierCounts, want) {
		t.Fatalf("ha TierCounts = %v, want %v", hs.TierCounts, want)
	}
	if hs.Cores != 6 {
		t.Fatalf("ha Cores = %d, want 6", hs.Cores)
	}
	if !hs.AdmitsTier("gold") || hs.AdmitsTier("platinum") {
		t.Fatal("AdmitsTier must track census key presence")
	}
	if hb := ReadHostStats(v, "hb"); hb.TierCounts != nil {
		t.Fatalf("untiered hb published a census: %v", hb.TierCounts)
	}
}
