package stats

import "math"

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta, the key-popularity distribution YCSB uses (theta ≈ 0.99
// in the standard core workloads). It uses the rejection-inversion sampler
// of Hörmann and Derflinger, which needs O(1) time and no per-rank tables,
// so very large keyspaces are cheap.
type Zipf struct {
	s     *Stream
	n     float64
	theta float64

	// Precomputed constants for rejection inversion.
	oneMinusTheta    float64
	hIntegralX1      float64
	hIntegralNumElem float64
	scale            float64
}

// NewZipf returns a zipfian sampler over [0, n) with exponent theta in
// (0, 1) ∪ (1, ∞); theta == 1 is approximated by 1+1e-9.
func NewZipf(s *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if theta <= 0 {
		panic("stats: NewZipf with non-positive theta")
	}
	if theta == 1 {
		theta = 1 + 1e-9
	}
	z := &Zipf{s: s, n: float64(n), theta: theta, oneMinusTheta: 1 - theta}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(z.n + 0.5)
	z.scale = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.theta * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.theta)*logX) * logX
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusTheta
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x/3.0*(1+0.25*x))
}

// Next returns the next zipf-distributed rank in [0, N).
func (z *Zipf) Next() int {
	for {
		u := z.hIntegralNumElem + z.s.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.scale || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k) - 1
		}
	}
}

// ScrambledNext returns a zipf rank scattered over the keyspace with an FNV
// hash, matching YCSB's "scrambled zipfian" so that popular keys are not
// clustered at the low end.
func (z *Zipf) ScrambledNext() int {
	r := uint64(z.Next())
	h := (r ^ 14695981039346656037) * 1099511628211
	h = splitmix64(h)
	return int(h % uint64(z.n))
}
