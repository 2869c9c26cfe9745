package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with one implicit overflow
// bucket past the last bound. Quantiles are estimated by linear
// interpolation within the winning bucket — exact enough for p50/p95/p99
// reporting when the bounds follow a 1-2-5 or power-of-two ladder.
//
// Observe is lock-free (one atomic add per bucket/count/sum) and safe
// for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64 // observations rounded to integers (ns, bytes, MB/s)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(math.Round(v)))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values (rounded per observation).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) }

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by interpolating within
// the bucket holding the target rank. Values in the overflow bucket
// report the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(h.bounds, h.count.Load(), q, func(i int) int64 { return h.counts[i].Load() })
}

// quantile is the interpolation behind Histogram.Quantile and
// Window.QuantileAt: count(i) is bucket i's tally out of total, and a
// rank past the last bound reports the last bound.
func quantile(bounds []float64, total int64, q float64, count func(i int) int64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(total)
	cum, lo := 0.0, 0.0
	for i, hi := range bounds {
		c := float64(count(i))
		if c > 0 && cum+c >= rank {
			return lo + (hi-lo)*max((rank-cum)/c, 0)
		}
		cum += c
		lo = hi
	}
	return bounds[len(bounds)-1]
}

// boundsEqual reports whether two bucket ladders are the same. The
// shared ladders (LatencyBuckets etc.) return the same backing array on
// every call, so the identity check makes the common repeated-resolution
// path free.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ladder125 builds a 1-2-5 ladder from lo through hi inclusive.
func ladder125(lo, hi float64) []float64 {
	var out []float64
	for base := lo; base <= hi; base *= 10 {
		for _, m := range []float64{1, 2, 5} {
			v := base * m
			if v > hi {
				break
			}
			out = append(out, v)
		}
	}
	return out
}

var (
	latencyBuckets = ladder125(1e3, 1e10) // 1µs … 10s, in nanoseconds
	sizeBuckets    = func() []float64 {
		var out []float64
		for v := 64.0; v <= 4*1024*1024*1024; v *= 4 {
			out = append(out, v) // 64 B … 4 GiB
		}
		return out
	}()
	rateBuckets = func() []float64 {
		var out []float64
		for v := 0.25; v <= 65536; v *= 2 {
			out = append(out, v) // 0.25 … 65536 MB/s
		}
		return out
	}()
)

// LatencyBuckets returns the standard latency bounds: a 1-2-5 ladder
// from 1µs to 10s, in nanoseconds.
func LatencyBuckets() []float64 { return latencyBuckets }

// SizeBuckets returns the standard size bounds: powers of four from
// 64 B to 4 GiB, in bytes.
func SizeBuckets() []float64 { return sizeBuckets }

// RateBuckets returns the standard throughput bounds: powers of two
// from 0.25 to 65536 MB/s.
func RateBuckets() []float64 { return rateBuckets }
