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
// POTSHARDS) on the cluster substrate. A stripe read walks the nodes in
// index order on the caller's goroutine, retries transient errors with
// bounded exponential backoff, moves on to the next node as probes fail,
// fans out only when a probe stalls, and stops as soon as the decoder's
// minimum is in hand — a k-of-n read instead of a full-stripe read.

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
// the whole stripe of an unchunked write. It probes the nodes in index
// order on the caller's goroutine, retries each per pol, and moves on to
// the next node as probes fail, stopping once want shards are in hand: an
// unfaulted read fetches exactly want shards, from nodes 0 to want-1. A
// probe that outlives the hedge deadline makes the read fan out to up to
// want plus two shards landed or in flight (see probeStripe). valid,
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
// shard.missing, shard.discarded), and each backoff sleep it paid. A
// hedge is a "fetch.hedged" event on the fetch span. Once a read has
// fanned out, its probe spans are created on concurrent goroutines; the
// tracer is built for exactly this (sibling spans on concurrent
// goroutines).
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

// probeStripe is the walk of a stripe read: it takes the nodes not
// marked tried in index order, one probe at a time on the caller's
// goroutine, each retried per pol and vetted by valid when non-nil,
// until res holds want shards or no node is left. No goroutine is
// started, so an unfaulted read fetches exactly the want shards it
// needs, from the first want untried nodes.
//
// A probe that stalls makes the read fan out (a hedge). A timer is
// re-armed at the start of each probe; if the probe, its retry backoff
// included, outlives the cluster's hedgeAfter, the read records a
// "fetch.hedged" event on its "cluster.fetch" span and starts walkers
// that take further nodes beside the stalled probe, while the shards
// landed plus those in flight number fewer than want plus two. The
// caller's goroutine walks on beside them once its probe returns, and
// the read ends when every walker has. fctx carries the read's
// "cluster.fetch" span, parent of every probe span.
func (c *Cluster) probeStripe(ctx, fctx context.Context, object string, chunk, want int, pol RetryPolicy, valid func(index int, data []byte) bool, res *StripeResult, tried []bool) {
	if res.Fetched >= want {
		return
	}
	w := &stripeWalk{
		c: c, ctx: ctx, fctx: fctx, object: object, chunk: chunk, pol: pol, valid: valid,
		res: res, tried: tried, want: want, after: c.hedgeAfter,
	}
	for _, t := range tried {
		if !t {
			w.left++
		}
	}
	w.budget = res.Fetched + min(want-res.Fetched+2, w.left)
	w.walk(true)
	w.mu.Lock()
	w.done = true
	w.mu.Unlock()
	if w.hedge != nil {
		w.hedge.Stop()
	}
	w.wg.Wait()
}

// hedgeDeadline is how long one probe of a stripe read may run before
// the read fans out. It is a constant, not learned from the Gets the
// cluster has timed: a deadline taken from the latency it hedges against
// grows with it, so on a cluster whose every node is slow no probe
// would outlive it and each read would pay want probe latencies one
// after another. 200 µs is far above a local read, so one rarely hedges
// (a 16 KiB page-cache Get on the disk store took 3.4 µs on average in
// a traced recall_cold run on 2 vCPUs, and 37 of 61,120 stripe reads
// hedged), and a read from uniformly slow nodes costs about one probe
// latency plus the deadline.
const hedgeDeadline = 200 * time.Microsecond

// stripeWalk is one probeStripe call in flight.
type stripeWalk struct {
	c         *Cluster
	ctx, fctx context.Context
	object    string
	chunk     int
	pol       RetryPolicy
	valid     func(index int, data []byte) bool
	want      int
	tried     []bool // read only
	after     time.Duration
	// hedge is the caller's probe timer, armed by walk on the caller's
	// goroutine only.
	hedge *time.Timer
	wg    sync.WaitGroup

	// mu guards res and the fields below.
	mu  sync.Mutex
	res *StripeResult
	// budget caps the shards landed plus those in flight; a miss frees
	// its slot. A walker whose shard landed may take the next node, so
	// one goroutine can fetch several shards back to back: retiring each
	// after one shard made a 16 KiB disk-store Get's p50 about 12 %
	// slower on 2 vCPUs (a goroutine scheduled per shard). left counts
	// the untried nodes not yet taken, next is where the search for the
	// next one starts, and cur is the node the caller's goroutine probed
	// last.
	budget, left, next, inFlight, cur int
	// fanned is set once walkers run beside the caller, done once the
	// caller's walk has ended.
	fanned, done bool
}

// walk takes nodes and probes them until the read is complete, no node
// is left, or (once the read has fanned out) the budget is full. The
// caller's goroutine walks with caller set and times each probe it makes
// before the read fans out.
func (w *stripeWalk) walk(caller bool) {
	for {
		// Cancellation checkpoint between probes: a disconnected caller
		// must not keep burning probes, retries, and injected latency
		// across the remaining nodes (GetRetryCtx cuts the in-flight
		// probe's backoff short; this stops the next one from starting).
		if w.ctx.Err() != nil {
			return
		}
		w.mu.Lock()
		for w.next < len(w.tried) && w.tried[w.next] {
			w.next++
		}
		if w.res.Fetched >= w.want || w.left == 0 || w.res.Fetched+w.inFlight >= w.budget {
			w.mu.Unlock()
			return
		}
		i := w.next
		w.next++
		w.left--
		w.inFlight++
		timed := caller && !w.fanned
		if caller {
			w.cur = i
		}
		w.mu.Unlock()
		if timed {
			if w.hedge == nil {
				w.hedge = time.AfterFunc(w.after, w.stalled)
			} else {
				w.hedge.Reset(w.after)
			}
		}
		sh, err := w.probe(i)
		if timed {
			w.hedge.Stop()
		}
		w.mu.Lock()
		w.inFlight--
		switch {
		case errors.Is(err, ErrShardInvalid):
			w.res.discard(i, err)
		case err != nil:
			w.res.Failures = append(w.res.Failures, NodeFailure{Node: i, Err: err})
		default:
			w.res.Shards[i] = sh.Data
			w.res.Fetched++
		}
		w.mu.Unlock()
	}
}

// stalled is the hedge timer's callback: the caller's probe outlived the
// deadline, so unless the walk has ended or fanned out already, the read
// fans out.
func (w *stripeWalk) stalled() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done || w.fanned {
		return
	}
	trace.FromContext(w.fctx).Event("fetch.hedged", trace.Int("node", w.cur),
		trace.Int64("after_ns", w.after.Nanoseconds()), trace.Int("fetched", w.res.Fetched))
	w.fanOut()
}

// fanOut starts walkers beside the caller's: enough to fill the budget
// with the caller's goroutine counted as one, and no more than there
// are nodes left to take. Caller holds w.mu.
func (w *stripeWalk) fanOut() {
	w.fanned = true
	for range min(w.budget-w.res.Fetched-1, w.left) {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.walk(false)
		}()
	}
}

// probe fetches shard i of the stripe from node i, retried per the
// walk's policy and vetted by its validator, as a "cluster.probe" span
// carrying the node's terminal cause.
func (w *stripeWalk) probe(i int) (Shard, error) {
	m := w.c.metrics
	at(m.probeAt, i)
	pctx, psp := trace.Child(w.fctx, "cluster.probe", trace.Int("node", i), trace.Int("shard", i))
	sh, err := w.c.GetRetryCtx(pctx, i, ShardKey{Object: w.object, Index: i, Chunk: w.chunk}, w.pol)
	if err == nil && w.valid != nil && !w.valid(i, sh.Data) {
		err = fmt.Errorf("%w: node %d %s[%d]", ErrShardInvalid, i, w.object, i)
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
	return sh, err
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
