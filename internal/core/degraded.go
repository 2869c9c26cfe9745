package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

// ErrDegraded marks a read that gathered fewer shards than the encoding
// needs to decode: n−k+1 or more providers failed or served corrupt
// bytes. Match with errors.Is; errors.As against *DegradedError exposes
// the got/want counts and per-node causes.
var ErrDegraded = errors.New("core: degraded read below decode threshold")

// DegradedError is the typed failure for an under-populated stripe —
// what the user sees instead of an opaque scheme-level decode error.
type DegradedError struct {
	Object string
	// Got and Want are validated shards fetched vs the encoding minimum.
	Got, Want int
	// Failures attribute the misses per node (down, corrupt, missing…).
	Failures []cluster.NodeFailure
}

// Error renders e.g. "core: get obj1: insufficient shards: got 2,
// want 3 (node 4: corrupt, node 5: down)".
func (e *DegradedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: get %s: insufficient shards: got %d, want %d", e.Object, e.Got, e.Want)
	if s := (&cluster.StripeResult{Failures: e.Failures}).FailureSummary(); s != "" {
		fmt.Fprintf(&b, " (%s)", s)
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrDegraded) hold.
func (e *DegradedError) Unwrap() error { return ErrDegraded }

// vaultMetrics pre-resolves the vault's instruments so the Put/Get hot
// paths pay only atomic updates. Op latencies go through reg.Span
// (vault.put.ok / vault.put.err and friends); encode/decode throughput
// is recorded per operation in MB/s.
type vaultMetrics struct {
	reg *obs.Registry

	putBytes, getBytes *obs.Histogram
	encodeMBs          *obs.Histogram
	decodeMBs          *obs.Histogram
	// Encoding-labeled op latency: the vault.put.ns / vault.get.ns
	// families keyed by {encoding}, pre-resolved to this vault's series
	// so comparing replication vs erasure deployments is one query. The
	// flat vault.put.ok/.err histograms (fed by the tracer bridge) stay.
	putNsByEnc *obs.Histogram
	getNsByEnc *obs.Histogram
	// lockWaitNs records time spent blocked acquiring an object's lock —
	// near-zero when traffic spreads across objects (the striped design's
	// point), visible when workers pile onto one id.
	lockWaitNs       *obs.Histogram
	readDiscarded    *obs.Counter
	readDegraded     *obs.Counter
	readInsufficient *obs.Counter
	scrubRepairs     *obs.Counter

	// The writer (pipeline.go): chunks pushed through encode→stage, and
	// the combined encode+stage rate the pipeline achieved.
	pipelineChunks *obs.Counter
	pipelineMBs    *obs.Histogram

	// Streaming ingest (stream.go): the in-flight / high-water plaintext
	// bytes buffered between the reader and the staged cluster writes —
	// the gauge that proves a multi-GiB upload stays O(chunk), not
	// O(object), in RAM.
	streamBuffered *obs.Gauge
	streamPeak     *obs.Gauge

	// Batched small-object writes (batch.go): member puts admitted,
	// flushes performed, members per flush, and how long a member waited
	// from enqueue to commit.
	batchPuts    *obs.Counter
	batchFlushes *obs.Counter
	batchMembers *obs.Histogram
	batchWaitNs  *obs.Histogram

	// Read cache & prefetch (cache.go, prefetch.go): the vault.cache.*
	// families are labeled by encoding so hit ratios compare across
	// deployments; the bytes gauge tracks residency against the budget
	// and the hit histogram is the served-from-memory latency.
	cacheHit       *obs.Counter
	cacheMiss      *obs.Counter
	cacheEvict     *obs.Counter
	cacheReject    *obs.Counter
	cacheBytes     *obs.Gauge
	cacheHitNs     *obs.Histogram
	prefetchIssued *obs.Counter
	prefetchWasted *obs.Counter
}

func newVaultMetrics(reg *obs.Registry, encName string) *vaultMetrics {
	slug := strings.ReplaceAll(strings.ToLower(encName), " ", "_")
	return &vaultMetrics{
		reg:              reg,
		putBytes:         reg.Histogram("vault.put.bytes", obs.SizeBuckets()),
		getBytes:         reg.Histogram("vault.get.bytes", obs.SizeBuckets()),
		encodeMBs:        reg.Histogram("encode."+slug+".mbps", obs.RateBuckets()),
		decodeMBs:        reg.Histogram("decode."+slug+".mbps", obs.RateBuckets()),
		putNsByEnc:       reg.LabeledHistogram("vault.put.ns", obs.LatencyBuckets(), "encoding").With(slug),
		getNsByEnc:       reg.LabeledHistogram("vault.get.ns", obs.LatencyBuckets(), "encoding").With(slug),
		lockWaitNs:       reg.Histogram("vault.lock.wait_ns", obs.LatencyBuckets()),
		readDiscarded:    reg.Counter("vault.read.discarded"),
		readDegraded:     reg.Counter("vault.read.degraded"),
		readInsufficient: reg.Counter("vault.read.insufficient"),
		scrubRepairs:     reg.Counter("vault.scrub.repairs"),
		pipelineChunks:   reg.Counter("vault.pipeline.chunks"),
		pipelineMBs:      reg.Histogram("vault.pipeline.mbps", obs.RateBuckets()),
		streamBuffered:   reg.Gauge("vault.stream.buffered_bytes"),
		streamPeak:       reg.Gauge("vault.stream.peak_buffered_bytes"),
		batchPuts:        reg.Counter("vault.batch.puts"),
		batchFlushes:     reg.Counter("vault.batch.flushes"),
		batchMembers:     reg.Histogram("vault.batch.members", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
		batchWaitNs:      reg.Histogram("vault.batch.wait_ns", obs.LatencyBuckets()),
		cacheHit:         reg.LabeledCounter("vault.cache.hit", "encoding").With(slug),
		cacheMiss:        reg.LabeledCounter("vault.cache.miss", "encoding").With(slug),
		cacheEvict:       reg.LabeledCounter("vault.cache.evict", "encoding").With(slug),
		cacheReject:      reg.LabeledCounter("vault.cache.admit_reject", "encoding").With(slug),
		cacheBytes:       reg.Gauge("vault.cache.bytes"),
		cacheHitNs:       reg.LabeledHistogram("vault.cache.hit.ns", obs.LatencyBuckets(), "encoding").With(slug),
		prefetchIssued:   reg.LabeledCounter("vault.cache.prefetch.issued", "encoding").With(slug),
		prefetchWasted:   reg.LabeledCounter("vault.cache.prefetch.wasted", "encoding").With(slug),
	}
}

// observeRate records plainLen bytes processed in d as MB/s.
func observeRate(h *obs.Histogram, plainLen int, d time.Duration) {
	if d <= 0 || plainLen <= 0 {
		return
	}
	h.Observe(float64(plainLen) / d.Seconds() / 1e6)
}

// WithRegistry points the vault's metrics at reg instead of
// obs.Default() — used by isolated measurement runs and tests. The
// cluster's own metrics are separate; pair with Cluster.UseRegistry to
// capture both in one place.
func WithRegistry(reg *obs.Registry) VaultOption {
	return func(v *Vault) { v.obsReg = reg }
}

// WithTracer points the vault's hierarchical tracing at tr instead of
// the tracer NewVault would otherwise pick (trace.Default() with the
// default registry, a private tracer with an isolated one). Pass a
// tracer whose registry matches WithRegistry so the span-duration
// histograms land next to the rest of the vault's metrics.
func WithTracer(tr *trace.Tracer) VaultOption {
	return func(v *Vault) { v.tracer = tr }
}
