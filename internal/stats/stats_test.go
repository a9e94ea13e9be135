package stats

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "device")
	b := NewStream(42, "device")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed,label) streams diverged")
		}
	}
}

func TestStreamIndependenceByLabel(t *testing.T) {
	a := NewStream(42, "device")
	b := NewStream(42, "guest")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different labels produced %d identical draws", same)
	}
}

func TestStreamForkDeterministic(t *testing.T) {
	a := NewStream(7, "x").Fork("vm0")
	b := NewStream(7, "x").Fork("vm0")
	if a.Uint64() != b.Uint64() {
		t.Fatal("forked streams not reproducible")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(1, "f")
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	s := NewStream(2, "i")
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(10) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStream(1, "p").Intn(0)
}

// moments accumulates the sample mean the distribution tests compare
// against their analytic values.
type moments struct{ n, sum float64 }

func (m *moments) Add(x float64) { m.n++; m.sum += x }
func (m *moments) Mean() float64 { return m.sum / m.n }

func TestExponentialMean(t *testing.T) {
	s := NewStream(3, "exp")
	var sum moments
	for i := 0; i < 200000; i++ {
		sum.Add(s.Exponential(2.0))
	}
	if got, want := sum.Mean(), 0.5; math.Abs(got-want) > 0.01 {
		t.Fatalf("Exponential(2) mean = %v, want ~%v", got, want)
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	s := NewStream(7, "zipf")
	z := NewZipf(s, 1000, 0.99)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 1000 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must be the most popular and dramatically above uniform.
	uniform := n / 1000
	if counts[0] < 10*uniform {
		t.Fatalf("rank-0 count %d not skewed (uniform ≈ %d)", counts[0], uniform)
	}
	if counts[0] < counts[500] {
		t.Fatal("zipf not monotone in expectation between rank 0 and 500")
	}
}

func TestZipfScrambledCoversSpace(t *testing.T) {
	s := NewStream(8, "zipfscramble")
	z := NewZipf(s, 100, 0.99)
	seen := map[int]bool{}
	for i := 0; i < 50000; i++ {
		k := z.ScrambledNext()
		if k < 0 || k >= 100 {
			t.Fatalf("scrambled key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 60 {
		t.Fatalf("scrambled zipf covered only %d/100 keys", len(seen))
	}
}

func TestPick(t *testing.T) {
	s := NewStream(9, "shuffle")
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	v := Pick(s, xs)
	found := false
	for _, x := range xs {
		if x == v {
			found = true
		}
	}
	if !found {
		t.Fatal("Pick returned element not in slice")
	}
}

func TestRangeBool(t *testing.T) {
	s := NewStream(10, "range")
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range = %v", v)
		}
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if s.Bool(0.3) {
			trues++
		}
	}
	if trues < 28000 || trues > 32000 {
		t.Fatalf("Bool(0.3) rate = %v", float64(trues)/100000)
	}
}

func TestInt63n(t *testing.T) {
	s := NewStream(11, "i63")
	for i := 0; i < 10000; i++ {
		v := s.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}
