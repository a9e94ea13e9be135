// Package stats provides deterministic random-number streams and the
// distributions the workload models draw from: uniform, exponential
// (inter-arrival times) and zipfian (key popularity).
//
// Every stochastic component in the simulator owns its own Stream, derived
// from an experiment seed and a component label, so adding or removing one
// component never perturbs the draws seen by another — a property the
// experiment harness relies on for paired comparisons between Baseline,
// SDC, DIF and IOrchestra runs.
package stats

import "math"

// Stream is a deterministic pseudo-random stream (PCG-XSH-RR 64/32 state
// advanced as 64-bit, output folded to 64 bits via two draws). It is small,
// fast, and has no global state. The zero value is a valid stream seeded
// with zero; prefer NewStream.
type Stream struct {
	state uint64
	inc   uint64
	// seed and label identify the stream so Fork can derive children
	// without consuming parent state — forking never perturbs the
	// parent's draw sequence, which keeps paired experiments paired.
	seed  uint64
	label string
}

// splitmix64 is used to diffuse seeds into initial state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns a stream determined entirely by (seed, label). Distinct
// labels yield statistically independent streams for the same seed.
func NewStream(seed uint64, label string) *Stream {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	s := &Stream{
		state: splitmix64(seed ^ h),
		inc:   splitmix64(h^0xda3e39cb94b95bdb) | 1, // must be odd
		seed:  seed,
		label: label,
	}
	// Warm up past the correlated first outputs.
	s.Uint64()
	s.Uint64()
	return s
}

// Fork derives an independent child stream, e.g. one per VM or per
// client. Derivation is purely lexical — (seed, parent label, child
// label) — so forking consumes no parent state; forking the same label
// twice yields the same stream, so callers must use distinct labels for
// distinct entities.
func (s *Stream) Fork(label string) *Stream {
	return NewStream(s.seed, s.label+"/"+label)
}

func (s *Stream) next32() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 {
	return uint64(s.next32())<<32 | uint64(s.next32())
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling, 64-bit.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Int63n returns a uniform value in [0, n) for int64 bounds.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	bound := uint64(n)
	hi, lo := mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = mul64(s.Uint64(), bound)
		}
	}
	return int64(hi)
}

// Range returns a uniform float64 in [lo, hi).
func (s *Stream) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Exponential returns a draw from Exp(rate): mean 1/rate.
func (s *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Pick returns a uniformly chosen element of xs.
func Pick[T any](s *Stream, xs []T) T {
	return xs[s.Intn(len(xs))]
}
