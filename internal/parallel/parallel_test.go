package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	g := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != g {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, g)
	}
	if got := Workers(-3); got != g {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, g)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	// Requests beyond the scheduler's parallelism clamp at GOMAXPROCS —
	// extra workers on a CPU-bound kernel are pure goroutine churn.
	want := 7
	if want > g {
		want = g
	}
	if got := Workers(7); got != want {
		t.Fatalf("Workers(7) = %d, want %d (GOMAXPROCS=%d)", got, want, g)
	}
	if got := Workers(1 << 20); got != g {
		t.Fatalf("Workers(1<<20) = %d, want %d", got, g)
	}
}

// TestForCoversRangeExactlyOnce checks that every index is visited exactly
// once for a grid of (p, n, grain) combinations.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			for _, grain := range []int{0, 1, 16, 1024, 10000} {
				counts := make([]int32, n)
				For(p, n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("For(p=%d, n=%d, grain=%d): bad range [%d,%d)", p, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("For(p=%d, n=%d, grain=%d): index %d visited %d times", p, n, grain, i, c)
					}
				}
			}
		}
	}
}

// TestForGrainKeepsSmallWorkSerial verifies that n <= grain runs as one
// inline chunk (observable as a single call covering the whole range).
func TestForGrainKeepsSmallWorkSerial(t *testing.T) {
	var calls int32
	For(8, 100, 1000, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 100 {
			t.Errorf("expected single chunk [0,100), got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 chunk, got %d", calls)
	}
}

func TestSpanPartitions(t *testing.T) {
	for _, n := range []int{1, 2, 10, 17, 1000} {
		for k := 1; k <= n && k < 20; k++ {
			prev := 0
			for i := 0; i < k; i++ {
				lo, hi := Span(n, k, i)
				if lo != prev {
					t.Fatalf("Span(%d,%d,%d): lo=%d, want %d", n, k, i, lo, prev)
				}
				if sz := hi - lo; sz < n/k || sz > n/k+1 {
					t.Fatalf("Span(%d,%d,%d): unbalanced size %d", n, k, i, sz)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("Span(%d,%d,·): chunks end at %d, want %d", n, k, prev, n)
			}
		}
	}
}

func TestPipelineOrdered(t *testing.T) {
	var got []int
	err := Pipeline(2,
		func(emit func(int) bool) error {
			for i := 0; i < 100; i++ {
				if !emit(i) {
					t.Error("emit rejected without consumer failure")
				}
			}
			return nil
		},
		func(v int) error {
			got = append(got, v)
			return nil
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("consumed %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestPipelineProducerError(t *testing.T) {
	wantErr := errors.New("produce failed")
	n := 0
	err := Pipeline(4,
		func(emit func(int) bool) error {
			emit(1)
			emit(2)
			return wantErr
		},
		func(v int) error { n++; return nil },
		nil,
	)
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != 2 {
		t.Fatalf("consumed %d before producer error surfaced, want 2", n)
	}
}

// TestPipelineConsumerError checks that a consumer failure stops the
// producer early, wins over the producer's error, and routes every
// unconsumed value through drop (pooled-buffer reclamation).
func TestPipelineConsumerError(t *testing.T) {
	wantErr := errors.New("consume failed")
	// drop runs on whichever goroutine discards the value (producer via a
	// rejected emit, consumer while draining), so count atomically.
	var emitted, dropped, consumed atomic.Int64
	err := Pipeline(1,
		func(emit func(int) bool) error {
			for i := 0; i < 1000; i++ {
				if !emit(i) {
					return errors.New("stopped early")
				}
				emitted.Add(1)
			}
			return nil
		},
		func(v int) error {
			consumed.Add(1)
			if v == 3 {
				return wantErr
			}
			return nil
		},
		func(int) { dropped.Add(1) },
	)
	if err != wantErr {
		t.Fatalf("err = %v, want consumer error %v", err, wantErr)
	}
	if emitted.Load() >= 1000 {
		t.Fatal("producer ran to completion despite consumer failure")
	}
	// Everything emitted was either consumed or dropped — nothing leaked.
	// (+1: the in-flight value the rejected emit itself dropped.)
	if consumed.Load()+dropped.Load() != emitted.Load()+1 {
		t.Fatalf("emitted=%d (+1 in-flight) consumed=%d dropped=%d: values leaked",
			emitted.Load(), consumed.Load(), dropped.Load())
	}
}
