package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"securearchive/internal/obs/trace"
)

// Degraded reads: the survivable-storage read discipline (PASIS,
// POTSHARDS) on the cluster substrate. A stripe read fans out a first
// wave of probes, retries transient errors with bounded exponential
// backoff, falls back to the remaining nodes as probes fail, and stops
// as soon as the decoder's minimum is in hand — a k-of-n read instead of
// a full-stripe read.

// ErrShardInvalid marks a fetched shard rejected by the caller's
// validator (digest or commitment mismatch — bit rot or tampering).
var ErrShardInvalid = errors.New("cluster: shard failed validation")

// RetryPolicy bounds per-node retries on ErrTransient.
type RetryPolicy struct {
	// MaxAttempts counts the first try; values < 1 mean 1.
	MaxAttempts int
	// BaseDelay is the first backoff; it doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
}

// DefaultRetry suits the in-memory simulation: a few fast attempts.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetry.BaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// ErrRetryAborted wraps a context error that cut a retry loop short:
// errors.Is(err, ErrRetryAborted) distinguishes "the caller gave up"
// from "the retries ran out", while errors.Is(err, context.Canceled) /
// context.DeadlineExceeded still hold through the wrap.
var ErrRetryAborted = errors.New("cluster: retry aborted by context")

// retryAbort wraps ctx.Err() so callers can match both ErrRetryAborted
// and the underlying context error.
func retryAbort(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrRetryAborted, context.Cause(ctx))
}

// retryTransient runs op, retrying with bounded exponential backoff for
// as long as it returns ErrTransient. Any other outcome — success,
// ErrNodeDown, ErrNoSuchShard — is final and returned immediately. Every
// backoff sleep selects on ctx.Done(), so a caller that disconnects
// mid-backoff gets ErrRetryAborted (wrapping ctx's error) promptly
// instead of sleeping out the whole schedule. When the context carries a
// recording span, each sleep is recorded on it as a "backoff.slept" event
// (attempt number and delay) — the retry loop's time becomes visible in
// the trace timeline instead of vanishing into the parent span's
// duration. It records no metrics; retryAt wraps it for that.
func retryTransient(ctx context.Context, pol RetryPolicy, op func() error) error {
	pol = pol.normalize()
	delay := pol.BaseDelay
	sp := trace.FromContext(ctx)
	var err error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			return retryAbort(ctx)
		}
		if err = op(); !errors.Is(err, ErrTransient) {
			return err
		}
		if attempt < pol.MaxAttempts-1 {
			sp.Event("backoff.slept",
				trace.Int("attempt", attempt+1), trace.Int64("delay_ns", delay.Nanoseconds()))
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return retryAbort(ctx)
			}
			delay *= 2
			if delay > pol.MaxDelay {
				delay = pol.MaxDelay
			}
		}
	}
	return err
}

// GetRetryCtx is GetCtx retried on transient faults per pol, with
// backoff sleeps attributed to the context's span and aborted by its
// cancellation; see retryTransient. The underlying fetch is GetCtx, so
// injected node latency is also cut short when the caller goes away.
func (c *Cluster) GetRetryCtx(ctx context.Context, nodeID int, key ShardKey, pol RetryPolicy) (Shard, error) {
	var sh Shard
	err := c.retryAt(ctx, nodeID, pol, func() (err error) {
		sh, err = c.GetCtx(ctx, nodeID, key)
		return err
	})
	return sh, err
}

// retryAt is retryTransient for one node's operation, with per-node
// attribution: every transient result the node produced, whether or not
// the policy has budget to try again, lands on cluster.retry{node} in
// this cluster's registry.
func (c *Cluster) retryAt(ctx context.Context, nodeID int, pol RetryPolicy, op func() error) error {
	return retryTransient(ctx, pol, func() error {
		err := op()
		if errors.Is(err, ErrTransient) {
			at(c.metrics.retryAt, nodeID)
		}
		return err
	})
}

// NodeFailure records why one node contributed nothing to a stripe read.
type NodeFailure struct {
	Node int
	Err  error
}

// cause compresses a fetch error into the one-word form used in
// failure summaries ("node 4: corrupt, node 5: down").
func (f NodeFailure) cause() string {
	switch {
	case errors.Is(f.Err, ErrShardInvalid):
		return "corrupt"
	case errors.Is(f.Err, ErrNodeDown):
		return "down"
	case errors.Is(f.Err, ErrNoSuchShard):
		return "missing"
	case errors.Is(f.Err, ErrTransient):
		return "transient"
	case f.Err == nil:
		return "ok"
	default:
		return f.Err.Error()
	}
}

// StripeResult is what a stripe read actually did — the record that
// makes degraded reads visible to callers instead of silently feeding
// an under-populated stripe to a decoder. Fetched below the requested
// minimum means the stripe is NOT decodable; callers must check it.
type StripeResult struct {
	// Shards is the stripe indexed by node; nil = not fetched. The
	// bytes are read-only (see GetCtx).
	Shards [][]byte
	// Fetched is the number of validated shards in Shards.
	Fetched int
	// Discarded lists node indices whose shard arrived but failed the
	// caller's validator (bit rot, tampering) — prime scrub candidates.
	Discarded []int
	// Failures records, per node that was probed and yielded nothing,
	// the terminal error (including ErrShardInvalid for discards).
	Failures []NodeFailure
	// Canceled is non-nil when the read stopped early because the
	// caller's context was cancelled (wrapping the context error): the
	// probe waves quit instead of burning retries for a reader that has
	// gone away. A short Fetched count with Canceled set means "the
	// caller left", not "the stripe is unreadable" — callers must
	// surface the context error, not a degraded-read error.
	Canceled error
}

// Degraded reports whether the read had to route around any failure or
// discard (even if it still gathered enough shards).
func (r *StripeResult) Degraded() bool { return len(r.Failures) > 0 }

// FailureSummary renders the per-node causes, e.g.
// "node 4: corrupt, node 5: down". Empty when nothing failed.
func (r *StripeResult) FailureSummary() string {
	if len(r.Failures) == 0 {
		return ""
	}
	parts := make([]string, len(r.Failures))
	for i, f := range r.Failures {
		parts[i] = fmt.Sprintf("node %d: %s", f.Node, f.cause())
	}
	return strings.Join(parts, ", ")
}

// FetchChunkStripeCtx performs a degraded k-of-n read of one chunk
// stripe of object across nodes [0, n): shard i of the chunk's stripe is
// fetched from node i (the one-shard-per-provider placement). Chunk 0 is
// the whole stripe of an unchunked write. It fans out want plus up to two
// speculative probes, retries each per pol, and pulls from the remaining
// nodes as probes fail, stopping once want shards are in hand. valid,
// when non-nil, vets each fetched shard (digest or commitment check); a
// shard that fails vetting is discarded, attributed to its node, and
// another node is tried. want outside (0, n] means the full stripe.
//
// The result records exactly what happened: which shards arrived
// (indexed by node), how many, which were discarded by validation, and
// the per-node cause of every miss. Callers deciding whether to decode
// MUST compare result.Fetched against their threshold.
//
// The read joins the context's trace (when one is ambient — the cluster
// never roots traces itself) as a "cluster.fetch" span; every probe
// attempt is a "cluster.probe" child carrying node/shard attributes, its
// terminal cause as a typed event (node.down, node.transient,
// shard.missing, shard.discarded), and each backoff sleep it paid. Probe
// spans are created on the fan-out goroutines; the tracer is built for
// exactly this (sibling spans on concurrent goroutines).
func (c *Cluster) FetchChunkStripeCtx(ctx context.Context, object string, chunk, n, want int, pol RetryPolicy, valid func(index int, data []byte) bool) *StripeResult {
	res := &StripeResult{}
	if n <= 0 {
		return res
	}
	if want <= 0 || want > n {
		want = n
	}
	fctx, fsp := trace.Child(ctx, "cluster.fetch",
		trace.Str("object", object), trace.Int("chunk", chunk), trace.Int("n", n), trace.Int("want", want))
	res.Shards = make([][]byte, n)
	c.probeStripe(ctx, fctx, object, chunk, want, pol, valid, res, make([]bool, n))
	c.endFetch(ctx, fsp, res, want, false)
	return res
}

// ResumeChunkStripeCtx continues a stripe read that FetchChunkStripeCtx
// returned as res, for a caller whose decode of it came out wrong: a
// caller that took shards unvetted finds out here which were bad. It
// vets every shard in hand with valid, discarding and attributing each
// one that fails exactly as a probe would (cluster.discard{node}, a
// shard.discarded event, an ErrShardInvalid entry in Failures and
// Discarded), then probes only the nodes res never tried, until want
// shards are in hand again. It updates res in place and returns it; a
// "cluster.fetch" span with resumed=1 records the work. A stripe the
// first read already counted as degraded is not counted twice.
func (c *Cluster) ResumeChunkStripeCtx(ctx context.Context, object string, chunk, want int, pol RetryPolicy, res *StripeResult, valid func(index int, data []byte) bool) *StripeResult {
	n := len(res.Shards)
	if want <= 0 || want > n {
		want = n
	}
	fctx, fsp := trace.Child(ctx, "cluster.fetch", trace.Str("object", object),
		trace.Int("chunk", chunk), trace.Int("n", n), trace.Int("want", want), trace.Int("resumed", 1))
	wasDegraded := res.Degraded()
	tried := make([]bool, n)
	for _, f := range res.Failures {
		tried[f.Node] = true
	}
	for i, sh := range res.Shards {
		if sh == nil {
			continue
		}
		tried[i] = true
		if !valid(i, sh) {
			at(c.metrics.discardAt, i)
			fsp.Event("shard.discarded", trace.Int("node", i))
			res.discard(i, fmt.Errorf("%w: node %d %s[%d]", ErrShardInvalid, i, object, i))
			res.Shards[i] = nil
			res.Fetched--
		}
	}
	c.probeStripe(ctx, fctx, object, chunk, want, pol, valid, res, tried)
	c.endFetch(ctx, fsp, res, want, wasDegraded)
	return res
}

// discard records node i's shard as failed with err, which wraps
// ErrShardInvalid.
func (r *StripeResult) discard(i int, err error) {
	r.Failures = append(r.Failures, NodeFailure{Node: i, Err: err})
	r.Discarded = append(r.Discarded, i)
}

// probeStripe is the fan-out of a stripe read: want minus the shards
// already in res plus up to two speculative probes walk the nodes not
// marked tried, in index order, each retried per pol and vetted by valid
// when non-nil, until res holds want shards or no node is left. A probe
// takes a further node only while the shards landed plus those in flight
// number fewer than want plus two, so an unfaulted read fetches at most
// want+2 shards, never the whole stripe: want+2 when every probe starts
// before want shards are in hand, fewer when a late one finds the read
// done. fctx carries the read's "cluster.fetch" span, parent of every
// probe span.
func (c *Cluster) probeStripe(ctx, fctx context.Context, object string, chunk, want int, pol RetryPolicy, valid func(index int, data []byte) bool, res *StripeResult, tried []bool) {
	if res.Fetched >= want {
		return
	}
	m := c.metrics
	left := 0
	for _, t := range tried {
		if !t {
			left++
		}
	}
	probes := min(want-res.Fetched+2, left)
	// budget caps the shards landed plus those in flight; a miss frees
	// its slot. A probe whose shard landed may still take the next node,
	// so one goroutine can fetch several shards back to back: retiring
	// each probe after one shard made a 16 KiB disk-store Get's p50 about
	// 12 % slower on 2 vCPUs (a goroutine scheduled per shard).
	budget := res.Fetched + probes
	var (
		mu       sync.Mutex
		next     int
		inFlight int
	)
	var wg sync.WaitGroup
	wg.Add(probes)
	for w := 0; w < probes; w++ {
		go func() {
			defer wg.Done()
			for {
				// Cancellation checkpoint between probe waves: a
				// disconnected caller must not keep burning probes,
				// retries, and injected latency across the remaining
				// nodes (GetRetryCtx below cuts the in-flight probe's
				// backoff short; this stops the next one from starting).
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				for next < len(tried) && tried[next] {
					next++
				}
				if res.Fetched >= want || next >= len(tried) || res.Fetched+inFlight >= budget {
					mu.Unlock()
					return
				}
				i := next
				next++
				inFlight++
				mu.Unlock()
				at(m.probeAt, i)
				pctx, psp := trace.Child(fctx, "cluster.probe",
					trace.Int("node", i), trace.Int("shard", i))
				sh, err := c.GetRetryCtx(pctx, i, ShardKey{Object: object, Index: i, Chunk: chunk}, pol)
				if err == nil && valid != nil && !valid(i, sh.Data) {
					err = fmt.Errorf("%w: node %d %s[%d]", ErrShardInvalid, i, object, i)
					at(m.discardAt, i)
				}
				switch {
				case err == nil:
					psp.SetAttrs(trace.Int("bytes", len(sh.Data)))
				case errors.Is(err, ErrShardInvalid):
					psp.Event("shard.discarded", trace.Int("node", i))
				case errors.Is(err, ErrNodeDown):
					psp.Event("node.down", trace.Int("node", i))
				case errors.Is(err, ErrTransient):
					psp.Event("node.transient", trace.Int("node", i))
				case errors.Is(err, ErrNoSuchShard):
					psp.Event("shard.missing", trace.Int("node", i))
				}
				psp.End(err)
				mu.Lock()
				inFlight--
				switch {
				case errors.Is(err, ErrShardInvalid):
					res.discard(i, err)
				case err != nil:
					res.Failures = append(res.Failures, NodeFailure{Node: i, Err: err})
				default:
					res.Shards[i] = sh.Data
					res.Fetched++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// endFetch closes a stripe read's "cluster.fetch" span fsp: it records
// cancellation, sorts the per-node records, and counts the read as short
// or — unless wasDegraded says an earlier read of the same stripe already
// did — as degraded.
func (c *Cluster) endFetch(ctx context.Context, fsp trace.Span, res *StripeResult, want int, wasDegraded bool) {
	res.Canceled = nil
	if err := ctx.Err(); err != nil && res.Fetched < want {
		res.Canceled = retryAbort(ctx)
	}
	sort.Ints(res.Discarded)
	sort.Slice(res.Failures, func(a, b int) bool { return res.Failures[a].Node < res.Failures[b].Node })
	fsp.SetAttrs(trace.Int("fetched", res.Fetched), trace.Int("discarded", len(res.Discarded)))
	switch {
	case res.Canceled != nil:
		fsp.Event("fetch.canceled", trace.Int("got", res.Fetched), trace.Int("want", want))
	case res.Fetched < want:
		c.metrics.short.Inc()
		fsp.Event("stripe.short", trace.Int("got", res.Fetched), trace.Int("want", want))
	case res.Degraded() && !wasDegraded:
		c.metrics.degraded.Inc()
	}
	fsp.End(res.Canceled)
}
