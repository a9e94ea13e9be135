// Package metrics provides the measurement instruments the experiment
// harness consumes: latency recorders with exact percentiles, CDFs,
// throughput counters, and time-weighted utilization gauges — the same
// quantities the paper's figures plot (mean, standard deviation, 99.9th
// percentile, cumulative distributions, write throughput, CPU utilization).
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"iorchestra/internal/sim"
)

// Histogram is a log-linear latency histogram (HdrHistogram-flavoured):
// values are bucketed with ~4 % relative precision across nanoseconds to
// hours, so tail percentiles remain accurate without storing every sample.
type Histogram struct {
	buckets []uint64 // index = log-linear bucket
	count   uint64
	sum     float64
	max     sim.Time
}

const (
	subBucketBits  = 5 // 32 linear sub-buckets per power of two
	subBucketCount = 1 << subBucketBits
)

// bucketIndex maps a non-negative value to its log-linear bucket.
func bucketIndex(v int64) int {
	if v < subBucketCount {
		return int(v)
	}
	// Position of the highest set bit.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	top := exp - subBucketBits
	sub := int(v>>uint(top)) & (subBucketCount - 1)
	return (top+1)*subBucketCount + sub
}

// bucketLow returns the smallest value mapping to bucket i; used to
// reconstruct representative values.
func bucketLow(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	top := i/subBucketCount - 1
	sub := i % subBucketCount
	return (int64(subBucketCount) + int64(sub)) << uint(top)
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record folds one latency into the histogram. Negative values are clamped
// to zero (they indicate a model bug, but must not corrupt the buckets).
func (h *Histogram) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(int64(v))
	if i >= len(h.buckets) {
		grown := make([]uint64, i+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[i]++
	h.count++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean latency.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

// Max reports the largest recorded value.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile reports the p-th percentile (0 < p <= 100) with bucket
// midpoint interpolation.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			return sim.Time((lo + hi) / 2)
		}
	}
	return h.max
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if len(o.buckets) > len(h.buckets) {
		grown := make([]uint64, len(o.buckets))
		copy(grown, h.buckets)
		h.buckets = grown
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.Max())
}
