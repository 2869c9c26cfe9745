// Package parallel provides the bounded fork-join helpers the coding hot
// paths (rs, shamir, packed) use to spread encode/decode work across
// goroutines.
//
// The model is deliberately minimal: a chunked loop (For) and a
// two-stage pipeline (Pipeline), with For capped by a worker count that
// defaults to runtime.GOMAXPROCS(0). Work is partitioned statically into contiguous
// chunks — coding workloads are uniform per byte, so static partitioning
// beats a work-stealing queue and keeps each worker streaming over one
// contiguous byte range (cache-friendly, no false sharing on shard
// boundaries). Callers express a minimum grain so small payloads never
// pay goroutine overhead: with n <= grain or workers == 1 the loop runs
// inline on the calling goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// Workers resolves a requested parallelism degree: values <= 0 select
// runtime.GOMAXPROCS(0), and any request is clamped at GOMAXPROCS — the
// fork-join helpers here run CPU-bound coding kernels, so workers beyond
// the scheduler's parallelism are pure goroutine churn (visible as
// per-put goroutine spawn storms in pprof when tiny stripes ask
// for W=64 on a small box). This is the single knob the WithParallelism
// options across rs/shamir/packed/core funnel into; the per-call chunk
// count in For supplies the third clamp term, min(requested, GOMAXPROCS,
// rows).
func Workers(n int) int {
	if g := runtime.GOMAXPROCS(0); n <= 0 || n > g {
		return g
	}
	return n
}

// For splits the index range [0, n) into at most p contiguous chunks of
// at least grain elements each and runs fn(lo, hi) on every chunk, using
// up to p goroutines (p <= 0 means GOMAXPROCS). fn is called exactly once
// per chunk, chunks are disjoint and cover [0, n), and For returns only
// after every call has finished. fn must be safe to run concurrently on
// disjoint ranges. When only one chunk results, fn runs inline.
func For(p, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p = Workers(p)
	chunks := (n + grain - 1) / grain
	if chunks > p {
		chunks = p
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for i := 1; i < chunks; i++ {
		lo, hi := Span(n, chunks, i)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	lo, hi := Span(n, chunks, 0)
	fn(lo, hi)
	wg.Wait()
}

// Span returns the half-open range [lo, hi) of chunk i when [0, n) is
// split into k balanced contiguous chunks (sizes differ by at most one).
func Span(n, k, i int) (lo, hi int) {
	q, r := n/k, n%k
	lo = i * q
	if i < r {
		lo += i
	} else {
		lo += r
	}
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// Pipeline runs a two-stage producer/consumer pipeline over a bounded
// channel of depth items: produce emits values (encode), consume drains
// them in emission order (stage/disperse), and the bound keeps at most
// depth values in flight — the backpressure that lets dispersal of chunk
// i overlap encoding of chunk i+1 without buffering a whole object.
//
// produce runs on its own goroutine; consume runs on the caller's. emit
// returns false once the consumer has failed, telling the producer to
// stop early. Pipeline returns the consumer's error if any, else the
// producer's. Values emitted after a consumer failure are discarded, and
// drop — when non-nil — is called on each discarded value so pooled
// resources can be reclaimed; it may run on either goroutine and must be
// safe for concurrent use.
func Pipeline[T any](depth int, produce func(emit func(T) bool) error, consume func(T) error, drop func(T)) error {
	if depth < 1 {
		depth = 1
	}
	ch := make(chan T, depth)
	stop := make(chan struct{})
	prodErr := make(chan error, 1)
	go func() {
		defer close(ch)
		prodErr <- produce(func(v T) bool {
			select {
			case ch <- v:
				return true
			case <-stop:
				if drop != nil {
					drop(v)
				}
				return false
			}
		})
	}()
	var consErr error
	for v := range ch {
		if consErr != nil {
			if drop != nil {
				drop(v)
			}
			continue
		}
		if err := consume(v); err != nil {
			consErr = err
			close(stop)
		}
	}
	if err := <-prodErr; consErr == nil && err != nil {
		return err
	}
	return consErr
}
