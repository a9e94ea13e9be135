package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"iorchestra/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Percentile(99) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	mean := h.Mean().Milliseconds()
	if math.Abs(mean-50.5) > 2 {
		t.Fatalf("Mean = %vms, want ~50.5ms", mean)
	}
	if h.Min() > sim.Millisecond+sim.Millisecond/10 {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 100*sim.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	p50 := h.Percentile(50).Milliseconds()
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %vms", p50)
	}
	p999 := h.Percentile(99.9).Milliseconds()
	if p999 < 90 {
		t.Fatalf("p99.9 = %vms", p999)
	}
}

func TestHistogramRelativePrecision(t *testing.T) {
	// Every recorded value must land in a bucket whose bounds are within
	// ~2*1/32 relative error of the value.
	f := func(raw uint32) bool {
		v := int64(raw)
		i := bucketIndex(v)
		lo, hi := bucketLow(i), bucketLow(i+1)
		if v < lo || v >= hi {
			return false
		}
		if v >= subBucketCount {
			width := hi - lo
			if float64(width) > float64(v)/8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatal("negative value not clamped to 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 50; i++ {
		a.Record(sim.Time(i))
	}
	for i := 51; i <= 100; i++ {
		b.Record(sim.Time(i) * sim.Second)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 100*sim.Second {
		t.Fatalf("merged max = %v", a.Max())
	}
	if a.Min() != 1 {
		t.Fatalf("merged min = %v", a.Min())
	}
	// Merging an empty histogram changes nothing.
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Fatal("merge of empty changed count")
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(sim.Time(v))
		}
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 99.9, 100} {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationFraction(t *testing.T) {
	var u Utilization
	u.SetBusy(0, true)
	u.SetBusy(3*sim.Second, false)
	u.SetBusy(5*sim.Second, true)
	got := u.Fraction(10 * sim.Second)
	want := (3.0 + 5.0) / 10.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Fraction = %v, want %v", got, want)
	}
	// Redundant transitions are ignored.
	u.SetBusy(10*sim.Second, true)
	if got := u.Fraction(10 * sim.Second); math.Abs(got-want) > 1e-9 {
		t.Fatalf("redundant SetBusy changed fraction: %v", got)
	}
}

func TestUtilizationReset(t *testing.T) {
	var u Utilization
	u.SetBusy(0, true)
	u.Reset(10 * sim.Second)
	got := u.Fraction(20 * sim.Second)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Fraction after reset = %v, want 1", got)
	}
}

func TestWindowRateExpiry(t *testing.T) {
	w := NewWindowRate(sim.Second, 4)
	w.Add(0, 10)
	w.Add(500*sim.Millisecond, 20)
	if got := w.Sum(900 * sim.Millisecond); got != 30 {
		t.Fatalf("Sum = %v, want 30", got)
	}
	// At t=1.2s the t=0 sample has fallen out of the 1s window.
	if got := w.Sum(1200 * sim.Millisecond); got != 20 {
		t.Fatalf("Sum = %v, want 20 after expiry", got)
	}
	if got := w.Rate(1200 * sim.Millisecond); math.Abs(got-20) > 1e-9 {
		t.Fatalf("Rate = %v, want 20/s", got)
	}
}

func TestWindowRateGrowth(t *testing.T) {
	w := NewWindowRate(sim.Hour, 2)
	for i := 0; i < 100; i++ {
		w.Add(sim.Time(i), 1)
	}
	if got := w.Sum(100); got != 100 {
		t.Fatalf("Sum = %v after growth, want 100", got)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(sim.Millisecond)
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}
