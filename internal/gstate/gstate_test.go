package gstate

import (
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

func TestParseTierDefaultsToBronze(t *testing.T) {
	for raw, want := range map[string]Tier{
		"gold": Gold, "silver": Silver, "bronze": Bronze,
		"": Bronze, "platinum": Bronze,
	} {
		if got := ParseTier(raw); got != want {
			t.Errorf("ParseTier(%q) = %v, want %v", raw, got, want)
		}
	}
}

func TestTierOrdering(t *testing.T) {
	if !(Bronze.Rank() < Silver.Rank() && Silver.Rank() < Gold.Rank()) {
		t.Fatal("tier ranks must order bronze < silver < gold")
	}
	if !(Gold.Floor() < Silver.Floor() && Silver.Floor() < Bronze.Floor()) {
		t.Fatal("tier floors must deepen bronze-ward")
	}
	if Bronze.Floor() != G3 {
		t.Fatalf("bronze floor = %v, want %v", Bronze.Floor(), G3)
	}
}

func TestStateWeightsMonotone(t *testing.T) {
	prev := 2.0
	for s := G0; s <= G3; s++ {
		w := s.Weight()
		if w <= 0 || w >= prev {
			t.Fatalf("state %v weight %v not strictly decreasing from %v", s, w, prev)
		}
		prev = w
	}
	if G0.Weight() != 1.0 {
		t.Fatalf("G0 weight = %v, want 1.0", G0.Weight())
	}
}

// TestDefaultSLAMetersDemotionFloor pins the deliberate overlap the
// violation metric depends on: bronze parked at its floor state is in
// bandwidth violation, gold and silver at their floors are not.
func TestDefaultSLAMetersDemotionFloor(t *testing.T) {
	for tier, wantViolating := range map[Tier]bool{
		Gold: false, Silver: false, Bronze: true,
	} {
		w := tier.Floor().Weight()
		if violating := w < DefaultSLA(tier).MinBWFrac; violating != wantViolating {
			t.Errorf("%s at floor %v: weight %v vs MinBWFrac %v -> violating=%v, want %v",
				tier, tier.Floor(), w, DefaultSLA(tier).MinBWFrac, violating, wantViolating)
		}
	}
}

// TestMachineVictimOrder walks the full demotion ladder for one guest
// per tier and checks bronze drains to its floor before silver is
// touched, silver before gold, and promotion recovers in mirror order.
func TestMachineVictimOrder(t *testing.T) {
	ma := NewMachine()
	ma.Add(1, Gold, DefaultSLA(Gold))
	ma.Add(2, Silver, DefaultSLA(Silver))
	ma.Add(3, Bronze, DefaultSLA(Bronze))

	type step struct {
		dom store.DomID
		st  State
	}
	var got []step
	for {
		dom, st, ok := ma.Demote()
		if !ok {
			break
		}
		got = append(got, step{dom, st})
	}
	want := []step{
		{3, G1}, {3, G2}, {3, G3}, // bronze first, to its floor
		{2, G1}, {2, G2}, // then silver
		{1, G1}, // gold last, only to its shallow floor
	}
	if len(got) != len(want) {
		t.Fatalf("demotion ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("demotion step %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}

	got = got[:0]
	for {
		dom, st, ok := ma.Promote()
		if !ok {
			break
		}
		got = append(got, step{dom, st})
	}
	want = []step{
		{1, G0},          // gold recovers first
		{2, G1}, {2, G0}, // then silver, most-demoted steps first
		{3, G2}, {3, G1}, {3, G0},
	}
	if len(got) != len(want) {
		t.Fatalf("promotion ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("promotion step %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	for _, dom := range ma.Doms() {
		if ma.State(dom) != G0 {
			t.Fatalf("dom%d still demoted after full promotion ladder", dom)
		}
	}
}

// TestMachineSpreadsWithinTier: with two bronze guests, demotion
// alternates between them instead of pushing one to the floor.
func TestMachineSpreadsWithinTier(t *testing.T) {
	ma := NewMachine()
	ma.Add(5, Bronze, DefaultSLA(Bronze))
	ma.Add(7, Bronze, DefaultSLA(Bronze))
	order := []store.DomID{5, 7, 5, 7, 5, 7}
	for i, want := range order {
		dom, _, ok := ma.Demote()
		if !ok || dom != want {
			t.Fatalf("demotion %d hit dom%d (ok=%v), want dom%d", i, dom, ok, want)
		}
	}
	if _, _, ok := ma.Demote(); ok {
		t.Fatal("demotion past every floor should report ok=false")
	}
}

func TestMeterAccrual(t *testing.T) {
	me := NewMeter()
	sec := sim.Time(sim.Second)
	if onset := me.Observe(1, Bronze, true, 10*sec); !onset {
		t.Fatal("first violating observation must be an onset")
	}
	if onset := me.Observe(1, Bronze, true, 12*sec); onset {
		t.Fatal("continued violation must not re-count the onset")
	}
	me.Observe(1, Bronze, false, 13*sec)
	if got := me.ViolationSeconds(Bronze); got != 3 {
		t.Fatalf("bronze violation-seconds = %v, want 3", got)
	}
	if got := me.Violations(Bronze); got != 1 {
		t.Fatalf("bronze violations = %d, want 1", got)
	}
	if me.AnyViolating(Bronze) {
		t.Fatal("a clean verdict left the bronze episode open")
	}
	// A second episode, left open, then force-closed.
	me.Observe(1, Bronze, true, 20*sec)
	me.Observe(1, Bronze, true, 21*sec)
	if !me.AnyViolating(Bronze) || me.AnyViolating(Gold) {
		t.Fatal("open-episode tier attribution wrong")
	}
	me.CloseAll(25 * sec)
	if got := me.ViolationSeconds(Bronze); got != 8 {
		t.Fatalf("bronze violation-seconds after close = %v, want 8", got)
	}
	if me.AnyViolating(Bronze) {
		t.Fatal("CloseAll left an episode open")
	}
}

func TestSLASchemaRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	st := store.New(k, 0)
	st.AddDomain(3)
	PublishSLA(st, 3, Gold, SLA{})
	tier, sla := ReadSLA(st, 3)
	if tier != Gold || sla != DefaultSLA(Gold) {
		t.Fatalf("round trip = (%v, %+v), want gold defaults", tier, sla)
	}
	// Declared overrides survive.
	PublishSLA(st, 3, Silver, SLA{MinBWFrac: 0.42, P99Budget: 9 * sim.Millisecond})
	tier, sla = ReadSLA(st, 3)
	if tier != Silver || sla.MinBWFrac != 0.42 || sla.P99Budget != 9*sim.Millisecond {
		t.Fatalf("override round trip = (%v, %+v)", tier, sla)
	}
	// Undeclared guest: bronze defaults.
	st.AddDomain(4)
	tier, sla = ReadSLA(st, 4)
	if tier != Bronze || sla != DefaultSLA(Bronze) {
		t.Fatalf("undeclared guest = (%v, %+v), want bronze defaults", tier, sla)
	}
}
