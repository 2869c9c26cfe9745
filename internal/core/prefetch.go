package core

import (
	"context"
	"sync"

	"securearchive/internal/cluster"
)

// Sequential-stripe prefetch for scan-style chunked reads: while the
// consumer decodes, digests, and writes chunk i, the stripe fetches for
// chunks i+1 … i+window are already in flight. The fetch — per-node
// probes with retry backoff — is the read pipeline's I/O half; without
// prefetch it serialises strictly with the CPU half (decode + SHA-256),
// exactly the stall the write side already removed with its
// encode→stage pipeline (pipeline.go).
//
// Lifetime discipline matters more than speed here:
//
//   - Every fetch goroutine runs while the consumer still holds the lock
//     guarding the layout (readStripes defers stop() before the lock is
//     released), so prefetchers can read its chunks without their own
//     locking and never outlive the state they were built over.
//   - Each result channel is buffered, so a fetch goroutine can always
//     deliver and exit — an abandoned prefetch never leaks a goroutine.
//   - stop() cancels the prefetch context and waits for every in-flight
//     fetch; a ctx cancellation from the caller propagates into
//     FetchChunkStripeCtx the same way it does on the sequential path.
//
// Results are handed to the consumer in chunk order, which then applies
// the exact same discard/cancel/degraded handling the sequential loop
// had — prefetching changes when fetches start, never how their results
// are interpreted.

// DefaultPrefetchWindow is how many chunk stripes a chunked read keeps
// in flight beyond the one being consumed. 2 overlaps fetch and decode
// without tripling the read's transient memory (each in-flight chunk
// holds one stripe's shards).
const DefaultPrefetchWindow = 2

// prefetcher drives one chunked read's look-ahead. It is used by a
// single consumer goroutine; the fetch goroutines communicate only
// through their per-chunk buffered channels.
type prefetcher struct {
	v      *Vault
	ctx    context.Context
	cancel context.CancelFunc
	l      *layout
	n, min int

	results []chan *cluster.StripeResult
	wg      sync.WaitGroup
}

// newPrefetcher builds the look-ahead driver for one read of l's
// chunks. The caller must hold the lock guarding l until stop returns.
func (v *Vault) newPrefetcher(ctx context.Context, l *layout, n, min int) *prefetcher {
	pctx, cancel := context.WithCancel(ctx)
	return &prefetcher{
		v:       v,
		ctx:     pctx,
		cancel:  cancel,
		l:       l,
		n:       n,
		min:     min,
		results: make([]chan *cluster.StripeResult, len(l.chunks)),
	}
}

// launch starts the fetch for chunk ci if it is not already in flight.
func (pf *prefetcher) launch(ci int) {
	if ci >= len(pf.results) || pf.results[ci] != nil {
		return
	}
	ch := make(chan *cluster.StripeResult, 1)
	pf.results[ci] = ch
	pf.wg.Add(1)
	go func() {
		defer pf.wg.Done()
		ch <- pf.v.fetchChunk(pf.ctx, pf.l, ci, pf.n, pf.min)
	}()
}

// next returns chunk ci's stripe result, launching it and the window
// ahead of it first, and blocking until the fetch delivers.
func (pf *prefetcher) next(ci int) *cluster.StripeResult {
	hi := ci + DefaultPrefetchWindow
	if hi > len(pf.results)-1 {
		hi = len(pf.results) - 1
	}
	for i := ci; i <= hi; i++ {
		pf.launch(i)
	}
	return <-pf.results[ci]
}

// stop cancels outstanding fetches — look-aheads for a consumer that
// will never arrive (early-error or cancelled reads) — and waits for
// every goroutine to exit. readStripes defers exactly one call.
func (pf *prefetcher) stop() {
	pf.cancel()
	pf.wg.Wait()
}
