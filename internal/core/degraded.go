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
// paths pay only atomic updates. Each vault operation's one record is
// its span's vault.<op>.{ok,err} latency pair (see Vault.tracer); what
// is here are sizes, encode/decode throughput in MB/s, and event counts.
type vaultMetrics struct {
	getBytes             *obs.Histogram
	encodeMBs, decodeMBs *obs.Histogram

	// Reads that discarded rotted shards, routed around a failure, or
	// fell below the decode threshold — the /healthz degraded-read rate
	// — and the stripes a scrub rebuilt.
	readDiscarded    *obs.Counter
	readDegraded     *obs.Counter
	readInsufficient *obs.Counter
	scrubRepairs     *obs.Counter

	// Read cache (cache.go): the vault.cache.* families are labelled by
	// encoding so hit ratios compare across deployments; each counts
	// exactly what the matching CacheStats tally does.
	cacheHit, cacheMiss, cacheEvict, cacheReject *obs.Counter
}

func newVaultMetrics(reg *obs.Registry, encName string) *vaultMetrics {
	slug := strings.ReplaceAll(strings.ToLower(encName), " ", "_")
	return &vaultMetrics{
		getBytes:         reg.Histogram("vault.get.bytes", obs.SizeBuckets()),
		encodeMBs:        reg.Histogram("encode."+slug+".mbps", obs.RateBuckets()),
		decodeMBs:        reg.Histogram("decode."+slug+".mbps", obs.RateBuckets()),
		readDiscarded:    reg.Counter("vault.read.discarded"),
		readDegraded:     reg.Counter("vault.read.degraded"),
		readInsufficient: reg.Counter("vault.read.insufficient"),
		scrubRepairs:     reg.Counter("vault.scrub.repairs"),
		cacheHit:         reg.LabeledCounter("vault.cache.hit", "encoding").With(slug),
		cacheMiss:        reg.LabeledCounter("vault.cache.miss", "encoding").With(slug),
		cacheEvict:       reg.LabeledCounter("vault.cache.evict", "encoding").With(slug),
		cacheReject:      reg.LabeledCounter("vault.cache.admit_reject", "encoding").With(slug),
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

// WithTracer points the vault's operation timing and hierarchical
// tracing at tr instead of the tracer NewVault would otherwise pick
// (trace.Default() with the default registry, a private tracer with an
// isolated one). Pass a tracer whose registry matches WithRegistry so
// the operations' latency histograms land next to the rest of the
// vault's metrics.
func WithTracer(tr *trace.Tracer) VaultOption {
	return func(v *Vault) { v.tracer = tr }
}
