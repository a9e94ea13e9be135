package main

import (
	"math"
	"sort"
	"time"
)

// percentileOf returns the p-th percentile (0..100) of an ascending slice
// by linear interpolation between closest ranks — the same rule as
// Python's statistics.quantiles(method="inclusive"), so a reader can
// re-derive any figure from the raw samples.
func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it: with n samples, p qualifies when
// n·(1−p/100) ≥ 10. Fewer than twenty samples support no percentile at
// all, and the function reports ok = false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		// The tolerance absorbs 1−0.9 and 100−99.9 not being exact in binary.
		if float64(n)*(100-q)/100 >= 10-1e-6 {
			p, ok = q, true
		}
	}
	return p, ok
}

// timing summarises one latency sample set the way every timing in the
// ledger is reported: median, p99, the highest supported percentile, and
// the sample count. Quiet is the wire workloads' quiet latency
// (quietPercentile).
type timing struct {
	N     int     `json:"n"`
	Quiet float64 `json:"quiet"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

// quietPercentile is where a closed loop's round trips are read for
// latency_quiet_us. A neighbour on the shared box only ever slows a round
// down, and the box's clock runs up to a quarter faster for a second or two
// whenever its neighbours idle, so the fastest rounds of a run — both
// sides' goroutines awake, the clock up — are the one reading of the code
// path that repeats: over ten seeds the 0.1th percentile spreads 1-4 % and
// moves 2 % between a loud phase of the box and a quiet one, where the 5th
// moves 10-17 %, the median spreads 7-23 % and the p99 18-130 %. A
// ten-second run has 40 (hot path) to 130 (decision loop) samples below it
// (README.md "Repeatability").
const quietPercentile = 0.1

// summarize sorts samples in place and reports their timing summary.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{N: len(samples), Quiet: percentileOf(samples, quietPercentile), P50: percentileOf(samples, 50), P99: percentileOf(samples, 99)}
	if p, ok := tailPercentile(len(samples)); ok {
		t.TailP, t.Tail = p, percentileOf(samples, p)
	}
	return t
}

// quartiles returns Q1, median and Q3 of xs with the exclusive method of
// Python's statistics.quantiles(xs, n=4), which is what the acceptance
// driver applies to the ten-seed sets.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// position k·(n+1)/4, 1-based, clamped to the data.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// windows splits a closed loop's completions into fixed wall-clock
// windows and keeps, per window, the completion rate and the latency
// median and p99. The medians of these per-window values are printed as a
// note beside the end-to-end figures, which are pooled over the run: on a
// shared box whole windows run slow when a neighbour is busy, and the gap
// between the two tells a reader how much of a figure that was.
type windows struct {
	start time.Time
	work  float64
	lat   []float64

	rate, p50, p99 []float64
}

// windowWidth holds about two thousand frames or five thousand rounds, so
// a window's p99 still has ten samples beyond it.
const windowWidth = 500 * time.Millisecond

func newWindows(start time.Time) *windows { return &windows{start: start} }

// add records work units completed at now with the given latency (µs).
func (w *windows) add(now time.Time, work, latencyUS float64) {
	w.work += work
	w.lat = append(w.lat, latencyUS)
	if el := now.Sub(w.start); el >= windowWidth {
		sort.Float64s(w.lat)
		w.rate = append(w.rate, w.work/el.Seconds())
		w.p50 = append(w.p50, percentileOf(w.lat, 50))
		w.p99 = append(w.p99, percentileOf(w.lat, 99))
		w.start, w.work, w.lat = now, 0, w.lat[:0]
	}
}

// median reports how many windows closed and the median window's rate,
// p50 and p99.
func (w *windows) median() (n int, rate, p50, p99 float64) {
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return percentileOf(s, 50)
	}
	return len(w.rate), med(w.rate), med(w.p50), med(w.p99)
}
