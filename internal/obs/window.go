package obs

import (
	"sync"
	"time"
)

// Window is a sliding-window aggregate: a ring of time buckets, each
// covering one interval, whose live (non-expired) subset answers "what
// happened over the last N×interval" — count, event rate, mean, and
// bucketed quantiles. It exists because lifetime counters cannot
// un-trip: the paper's decades-scale failure model needs /healthz and
// the SLO table to judge a server by its recent window, not its whole
// history, so a node that survived one bad hour can recover and a node
// that is rotting NOW shows it immediately.
//
// Buckets are keyed by epoch (wall time ÷ interval) and lazily recycled
// when an observation or read finds them stale; there is no background
// goroutine to leak. Every method takes the clock explicitly, so tests
// drive a window deterministically and callers decide what "now" is.
//
// Unlike Counter/Histogram, Window takes a mutex per observation — it
// backs health checks and SLOs (tens of ops per request), not per-shard
// hot paths, and correctness of the epoch rollover matters more than a
// few nanoseconds.
type Window struct {
	interval time.Duration
	bounds   []float64 // quantile bucket bounds; nil for count/rate-only windows

	mu      sync.Mutex
	buckets []wbucket
}

// wbucket is one interval's worth of observations.
type wbucket struct {
	epoch  int64 // unixnano / interval; 0 means never used
	count  int64
	counts []int64 // len(bounds)+1, allocated only when bounds are set
}

// NewWindow builds a sliding window of buckets×interval. bounds, when
// non-nil, enables ObserveAt/QuantileAt with fixed histogram buckets
// (same semantics as Histogram); pass nil for a pure event-count window.
func NewWindow(buckets int, interval time.Duration, bounds []float64) *Window {
	if buckets < 1 {
		buckets = 1
	}
	if interval <= 0 {
		interval = time.Second
	}
	w := &Window{
		interval: interval,
		bounds:   bounds,
		buckets:  make([]wbucket, buckets),
	}
	if len(bounds) > 0 {
		for i := range w.buckets {
			w.buckets[i].counts = make([]int64, len(bounds)+1)
		}
	}
	return w
}

// Span returns the window's total coverage (buckets × interval).
func (w *Window) Span() time.Duration {
	return time.Duration(len(w.buckets)) * w.interval
}

// bucketAt returns the ring slot for the given time, recycling it if it
// holds a stale epoch. Callers hold w.mu.
func (w *Window) bucketAt(now time.Time) *wbucket {
	epoch := now.UnixNano() / int64(w.interval)
	b := &w.buckets[int(epoch%int64(len(w.buckets)))]
	if b.epoch != epoch {
		b.epoch = epoch
		b.count = 0
		for i := range b.counts {
			b.counts[i] = 0
		}
	}
	return b
}

// AddAt records n events at time now.
func (w *Window) AddAt(now time.Time, n int64) {
	w.mu.Lock()
	b := w.bucketAt(now)
	b.count += n
	w.mu.Unlock()
}

// ObserveAt records one value at time now (requires bounds).
func (w *Window) ObserveAt(now time.Time, v float64) {
	w.mu.Lock()
	b := w.bucketAt(now)
	b.count++
	if len(w.bounds) > 0 {
		i := 0
		for i < len(w.bounds) && v > w.bounds[i] {
			i++
		}
		b.counts[i]++
	}
	w.mu.Unlock()
}

// live visits every bucket still inside the window ending at now.
// Callers hold w.mu.
func (w *Window) live(now time.Time, fn func(*wbucket)) {
	epoch := now.UnixNano() / int64(w.interval)
	min := epoch - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch >= min && b.epoch <= epoch {
			fn(b)
		}
	}
}

// CountAt returns the number of events in the window ending at now.
func (w *Window) CountAt(now time.Time) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	w.live(now, func(b *wbucket) { n += b.count })
	return n
}

// QuantileAt estimates the q-quantile of values observed in the window
// ending at now, interpolating within the winning bucket exactly as
// Histogram.Quantile does. Returns 0 with no bounds or no observations.
func (w *Window) QuantileAt(now time.Time, q float64) float64 {
	if len(w.bounds) == 0 {
		return 0
	}
	merged := make([]int64, len(w.bounds)+1)
	var total int64
	w.mu.Lock()
	w.live(now, func(b *wbucket) {
		for i, c := range b.counts {
			merged[i] += c
		}
		total += b.count
	})
	w.mu.Unlock()
	return quantile(w.bounds, total, q, func(i int) int64 { return merged[i] })
}
