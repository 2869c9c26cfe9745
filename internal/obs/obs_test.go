package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cluster.put.ok")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("cluster.put.ok") != c {
		t.Fatal("second resolution returned a different counter")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vault.get.ns", LatencyBuckets())
	// 100 observations spread uniformly across 1..100 µs.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e3)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 20e3 || p50 > 100e3 {
		t.Fatalf("p50 = %v, want within the observed range", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if mean := h.Mean(); mean < 40e3 || mean > 60e3 {
		t.Fatalf("mean = %v, want ≈ 50.5µs", mean)
	}
	// Overflow: a huge value lands in the overflow bucket, quantile
	// saturates at the last bound.
	h2 := r.Histogram("x.overflow", []float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %v, want last bound", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty", LatencyBuckets())
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b.ok").Add(3)
	r.Histogram("lat.ns", LatencyBuckets()).Observe(5e3)
	blob := r.Snapshot().JSON()
	var round Snapshot
	if err := json.Unmarshal(blob, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a.b.ok"] != 3 {
		t.Fatalf("counter lost in JSON: %+v", round.Counters)
	}
	if round.Schema == "" || !strings.HasPrefix(round.Schema, "securearchive/obs/") {
		t.Fatalf("schema = %q", round.Schema)
	}
}

// TestHistogramBoundsConflict pins the Histogram contract: the first
// caller's bounds win, later disagreeing callers get the existing
// histogram plus a tick on obs.hist.bounds_conflict, and nil/empty
// bounds are always a conflict-free lookup.
func TestHistogramBoundsConflict(t *testing.T) {
	r := NewRegistry()
	conflict := r.Counter("obs.hist.bounds_conflict")

	h := r.Histogram("lat", LatencyBuckets())
	if r.Histogram("lat", LatencyBuckets()) != h || conflict.Load() != 0 {
		t.Fatalf("same bounds flagged as conflict (count=%d)", conflict.Load())
	}
	if r.Histogram("lat", nil) != h || conflict.Load() != 0 {
		t.Fatalf("nil-bounds lookup flagged as conflict (count=%d)", conflict.Load())
	}
	// An equal-by-value copy must not conflict either.
	cp := append([]float64(nil), LatencyBuckets()...)
	if r.Histogram("lat", cp) != h || conflict.Load() != 0 {
		t.Fatalf("value-equal bounds flagged as conflict (count=%d)", conflict.Load())
	}
	// Genuinely different bounds: same histogram back, conflict counted.
	if r.Histogram("lat", SizeBuckets()) != h {
		t.Fatal("conflicting bounds returned a different histogram")
	}
	if conflict.Load() != 1 {
		t.Fatalf("bounds_conflict = %d, want 1", conflict.Load())
	}
	r.Histogram("lat", []float64{1, 2, 3})
	if conflict.Load() != 2 {
		t.Fatalf("bounds_conflict = %d, want 2", conflict.Load())
	}
}

// TestConcurrent exercises the lock-free observation paths under -race.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", LatencyBuckets()).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram = %d, want 8000", got)
	}
}
