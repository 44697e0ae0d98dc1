// Package stats provides the light-weight measurement plumbing used by the
// simulator: event counters, running means/variances, histograms with
// configurable bucketing, and epoch series used by the dynamic threshold
// tuner. Everything is plain in-memory arithmetic — the package exists so
// that each simulator component reports through one consistent vocabulary
// and so experiment runners can render results uniformly.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d (d may be zero; negative deltas panic).
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Sub decrements the counter by d. The one sanctioned use is replacing
// an estimated charge with its resolved value (the parallel engine's
// quantum-barrier true-up); d must not exceed the current count.
func (c *Counter) Sub(d uint64) { c.n -= d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns a/b as a float, or 0 when b is zero. It is the common
// "hit rate" helper used throughout the cache and predictor stats.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Pct formats a fraction as a percentage string with two decimals.
func Pct(f float64) string {
	return fmt.Sprintf("%.2f%%", 100*f)
}

// Running accumulates a streaming mean and variance using Welford's
// algorithm; used for queuing-delay and run-length summaries where holding
// every observation would be wasteful.
type Running struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += float64(delta * (x - r.mean))
}

// N returns the number of samples observed.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Sum returns the sample total, reconstructed as mean x n — bit-for-bit
// the expression interval collectors historically computed inline, kept
// identical so switching them to Sum() cannot move golden results.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Variance returns the population variance (0 with <2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observed sample (0 with no samples).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest observed sample (0 with no samples).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Reset discards all samples.
func (r *Running) Reset() { *r = Running{} }

// Histogram counts samples into geometric (power-of-two) buckets starting
// at bucket [0,1), then [1,2), [2,4), [4,8)... It is used for OS invocation
// run-length distributions, where the interesting structure spans five
// orders of magnitude.
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     float64
}

// NewHistogram returns a histogram with nBuckets geometric buckets; samples
// beyond the last bucket are clamped into it.
func NewHistogram(nBuckets int) *Histogram {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Histogram{buckets: make([]uint64, nBuckets)}
}

// bucketFor maps a non-negative sample to its bucket index.
func (h *Histogram) bucketFor(x float64) int {
	if x < 1 {
		return 0
	}
	idx := 1 + int(math.Floor(math.Log2(x)))
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

// Observe adds one sample; negative samples count in bucket 0.
func (h *Histogram) Observe(x float64) {
	if x < 0 {
		x = 0
	}
	h.buckets[h.bucketFor(x)]++
	h.total++
	h.sum += x
}

// Total returns the sample count.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the mean of observed samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// NumBuckets returns the bucket count.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// BucketLow returns the inclusive lower bound of bucket i.
func (h *Histogram) BucketLow(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Pow(2, float64(i-1))
}

// FractionAbove returns the fraction of samples whose bucket lower bound is
// >= threshold. Because bucketing is coarse this is approximate, matching
// its use as a quick distribution summary.
func (h *Histogram) FractionAbove(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	var above uint64
	for i := range h.buckets {
		if h.BucketLow(i) >= threshold {
			above += h.buckets[i]
		}
	}
	return float64(above) / float64(h.total)
}

// Quantile returns an approximate q-quantile (0<=q<=1) using bucket lower
// bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= target {
			return h.BucketLow(i)
		}
	}
	return h.BucketLow(len(h.buckets) - 1)
}

// Series is an ordered list of (label, value) points used for epoch-level
// feedback (e.g. L2 hit rate per epoch) and for rendering figure rows.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Append adds one point.
func (s *Series) Append(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Last returns the most recent value (0 when empty).
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Mean returns the mean of all points (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Median computes the exact median of a copy of xs; it does not modify xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// GeoMean returns the geometric mean of xs; non-positive entries are
// skipped. Used to aggregate normalized throughput across benchmarks, the
// conventional aggregation for ratios.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
