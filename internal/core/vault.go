package core

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// stripeCount is the number of registry lock stripes. Power of two so the
// FNV hash reduces with a mask; 64 stripes keep the collision probability
// low for realistic worker counts while the array stays cache-resident.
const stripeCount = 64

// DefaultChunkSize is the pipelined writer's chunk size: objects larger
// than this are split into fixed-size chunks that flow through
// encode→stage as a bounded pipeline (see pipeline.go). 1 MiB keeps each
// chunk's stripe well above the coding kernels' parallel grain while
// bounding the pipeline's in-flight memory to a few chunks.
const DefaultChunkSize = 1 << 20

// Vault is the framework's user-facing archive: an Encoding composed with
// cluster dispersal, per-object integrity chains, and renewal. It is what
// the examples and the archivectl CLI drive.
//
// A Vault is safe for concurrent use, and operations on distinct objects
// proceed fully in parallel: the object registry is sharded across
// stripeCount lock stripes (fnv(id) % stripeCount), each object carries
// its own RWMutex, and dispersal — encode, stage, commit — runs outside
// every stripe lock. See DESIGN.md "Concurrency model" for the lock
// ordering invariants.
type Vault struct {
	Cluster  *cluster.Cluster
	Encoding Encoding
	// IntegrityMode selects hash chains (cheap) or commitment chains
	// (LINCOS-style, confidentiality-preserving).
	IntegrityMode tstamp.RefMode
	Group         *group.Group
	rnd           io.Reader

	// retry bounds per-node retries on transient cluster faults.
	retry cluster.RetryPolicy

	// chunkSize bounds how much of an object a single encode works on;
	// larger objects take the pipelined chunked write path. <= 0 disables
	// chunking (every object encodes monolithically).
	chunkSize int

	// stripes shard the object registry (and the dirty queue) by
	// fnv(id) % stripeCount. A stripe's mutex guards only its maps —
	// lookup, insert, remove — never the I/O or CPU work of an operation,
	// which runs under the object's own lock (or no lock at all for
	// encode). Lock order: a goroutine may acquire a stripe mutex while
	// holding an object mutex (dirty marking, registry removal), but must
	// never block on a contended object mutex while holding any stripe
	// mutex — Put's reservation locks only a freshly created object that
	// no other goroutine can reach yet.
	stripes [stripeCount]vaultStripe

	// sweepMu serialises cross-object sweeps (ScrubAll today; an
	// epoch-wide renewal campaign would take it too) against each other,
	// so two concurrent sweeps don't double-repair the same stripes.
	// Per-object operations never touch it.
	sweepMu sync.Mutex

	// stageSeq uniquifies stage tokens across concurrent dispersals;
	// batchSeq does the same for batch blob ids (see batch.go).
	stageSeq atomic.Int64
	batchSeq atomic.Int64

	// streamBuffered/streamPeak meter the streaming writer's in-flight
	// plaintext bytes (read from the client but not yet staged on the
	// cluster) and the high-water mark across the vault's lifetime —
	// the evidence that streaming ingest is O(chunk), not O(object).
	// Mirrored into the vault.stream.* gauges; see stream.go.
	streamBuffered atomic.Int64
	streamPeak     atomic.Int64

	// cache is the decoded-object read cache (cache.go); nil — the
	// default — disables caching entirely and leaves the read path
	// exactly as it was. cacheBytes/cacheShare hold the WithReadCache /
	// WithCacheTenantShare settings until NewVault builds the cache,
	// so option order doesn't matter.
	cache      *readCache
	cacheBytes int64
	cacheShare float64

	// prefetchWindow is how many chunk-stripe fetches a chunked read
	// keeps in flight ahead of decode (prefetch.go); <= 0 disables.
	prefetchWindow int

	// obsReg/obsm are the metrics registry and pre-resolved instruments;
	// see degraded.go. tracer roots one hierarchical trace per vault op
	// (Put/Get/Renew/Scrub/Delete) and bridges span durations into
	// obsReg's histograms; disabled (the default), it degrades to exactly
	// the flat Span timing.
	obsReg *obs.Registry
	obsm   *vaultMetrics
	tracer *trace.Tracer
}

// vaultStripe is one shard of the object registry.
type vaultStripe struct {
	mu      sync.RWMutex
	objects map[string]*vaultObject
	// dirty queues objects whose reads discarded rotted shards for
	// ScrubAll; sharded with the registry so marking dirty contends only
	// within the stripe.
	dirty map[string]struct{}
}

// vaultObject is one archived object's client-side state.
type vaultObject struct {
	// mu serialises mutators (the initial Put's dispersal, RenewShares,
	// Scrub, Delete) and guards the fields below. Readers hold the read
	// side across the whole fetch/decode/verify so they never observe a
	// half-rewritten shard set or a chain/digest mismatch.
	mu sync.RWMutex
	// live is false while the initial Put is still dispersing and again
	// after Delete: a goroutine that found the registry entry must treat
	// a non-live object as absent. Atomic so listings can skim it without
	// the object lock.
	live atomic.Bool

	enc   *Encoded
	chain *tstamp.Chain
	// width is the stripe width actually written — how many shard indexes
	// this object's live stripes occupy on the cluster, recorded at Put
	// and updated on renewal/scrub rewrites. Delete must remove exactly
	// these keys: the vault's Encoding is a mutable field, so recomputing
	// the width from the *current* encoding at delete time would strand
	// shards whenever the configuration changed between write and delete.
	width int
	// digests are per-shard SHA-256 digests of the current encoding,
	// kept client-side: degraded reads use them to discard rotted shards
	// and probe further nodes, and Scrub uses them to localise damage.
	digests [][sha256.Size]byte
	// chunks holds per-chunk encoding state for objects written through
	// the pipelined chunked path (len > chunkSize); nil for monolithic
	// objects. See pipeline.go.
	chunks []chunkMeta
	// batch points at the shared stripe state when this object is a
	// member of a batched small-object write; nil otherwise. See batch.go.
	batch *batchState
	// batchIndex is this member's position in batch.members.
	batchIndex int
}

// stripeIndex hashes an object id onto its lock stripe (FNV-1a).
func stripeIndex(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h & (stripeCount - 1)
}

func (v *Vault) stripe(id string) *vaultStripe { return &v.stripes[stripeIndex(id)] }

// lookup fetches the registry entry for id, or nil. The returned object
// may be non-live (a Put still dispersing, or deleted); callers must
// check live under (or after acquiring) the object lock.
func (v *Vault) lookup(id string) *vaultObject {
	st := v.stripe(id)
	st.mu.RLock()
	obj := st.objects[id]
	st.mu.RUnlock()
	return obj
}

// Errors returned by Vault.
var (
	ErrNotFound = errors.New("core: object not found")
	ErrExists   = errors.New("core: object already exists")
)

// VaultOption configures NewVault.
type VaultOption func(*Vault)

// WithIntegrityMode selects the timestamp-chain reference mode.
func WithIntegrityMode(m tstamp.RefMode) VaultOption {
	return func(v *Vault) { v.IntegrityMode = m }
}

// WithGroup overrides the commitment group. Production callers must not
// pass it: the default (group.Default(), a 256-bit-order subgroup of a
// 2048-bit field) is the only secure choice. It exists so tests and the
// paper-figure tools can run the chain on group.Test().
func WithGroup(g *group.Group) VaultOption {
	return func(v *Vault) { v.Group = g }
}

// WithRand injects the randomness source (tests).
func WithRand(r io.Reader) VaultOption {
	return func(v *Vault) { v.rnd = r }
}

// WithReadCache enables the decoded-object read cache with a byte
// budget: repeated Gets of hot objects are served from memory instead
// of re-fetching and re-decoding a stripe. See cache.go for the
// coherence rules and the admission policy. n <= 0 leaves the cache
// disabled (the default).
func WithReadCache(n int64) VaultOption {
	return func(v *Vault) { v.cacheBytes = n }
}

// WithCacheTenantShare caps the fraction of the read cache any one
// owner — the id prefix before the first '/', the API layer's tenant —
// may occupy (DefaultCacheTenantShare, i.e. no split, otherwise). An
// owner over its share evicts its own coldest entries, never another
// tenant's hot set.
func WithCacheTenantShare(frac float64) VaultOption {
	return func(v *Vault) { v.cacheShare = frac }
}

// WithRetryPolicy bounds the vault's per-node retries on transient
// cluster faults (cluster.DefaultRetry otherwise).
func WithRetryPolicy(p cluster.RetryPolicy) VaultOption {
	return func(v *Vault) { v.retry = p }
}

// WithChunkSize sets the pipelined writer's chunk size
// (DefaultChunkSize otherwise): objects larger than n bytes are split
// into n-byte chunks whose encode and staging overlap as a bounded
// pipeline, instead of encode-all-then-disperse-all. n <= 0 disables
// chunking. Tests use small n to exercise multi-chunk objects cheaply.
func WithChunkSize(n int) VaultOption {
	return func(v *Vault) { v.chunkSize = n }
}

// WithParallelism bounds the goroutines each encode/decode may use, when
// the vault's encoding supports it (implements Parallelizable). n <= 0
// selects GOMAXPROCS; 1 forces serial encodes. Encodings that do not
// implement Parallelizable are left unchanged.
func WithParallelism(n int) VaultOption {
	return func(v *Vault) {
		if p, ok := v.Encoding.(Parallelizable); ok {
			v.Encoding = p.WithParallelism(n)
		}
	}
}

// NewVault builds a vault over the cluster with the encoding. The cluster
// must have at least as many nodes as the encoding has shards.
func NewVault(c *cluster.Cluster, enc Encoding, opts ...VaultOption) (*Vault, error) {
	n, _ := enc.Shards()
	if n > c.Size() {
		return nil, fmt.Errorf("core: encoding needs %d nodes, cluster has %d", n, c.Size())
	}
	v := &Vault{
		Cluster:        c,
		Encoding:       enc,
		IntegrityMode:  tstamp.RefCommitment,
		Group:          group.Default(),
		rnd:            rand.Reader,
		retry:          cluster.DefaultRetry,
		chunkSize:      DefaultChunkSize,
		cacheShare:     DefaultCacheTenantShare,
		prefetchWindow: DefaultPrefetchWindow,
		obsReg:         obs.Default(),
	}
	for i := range v.stripes {
		v.stripes[i].objects = make(map[string]*vaultObject)
		v.stripes[i].dirty = make(map[string]struct{})
	}
	for _, o := range opts {
		o(v)
	}
	v.obsm = newVaultMetrics(v.obsReg, v.Encoding.Name())
	if v.cacheBytes > 0 {
		v.cache = newReadCache(v.cacheBytes, v.cacheShare)
		v.cache.evictC = v.obsm.cacheEvict
		v.cache.rejectC = v.obsm.cacheReject
		v.cache.bytesG = v.obsm.cacheBytes
	}
	if v.tracer == nil {
		if v.obsReg == obs.Default() {
			v.tracer = trace.Default()
		} else {
			// An isolated registry gets an isolated tracer so its bridge
			// histograms land in the same place as the rest of its metrics.
			v.tracer = trace.New(v.obsReg)
		}
	}
	return v, nil
}

// lockWait acquires lock() and records the time spent blocked on it in
// the vault.lock.wait_ns histogram — the contention attribution for the
// striped design: near-zero when traffic spreads across objects, visible
// when workers pile onto one id.
func (v *Vault) lockWait(sp trace.Span, lock func()) {
	start := time.Now()
	lock()
	w := time.Since(start)
	v.obsm.lockWaitNs.Observe(float64(w.Nanoseconds()))
	if w >= time.Millisecond {
		sp.SetAttrs(trace.Int64("lock_wait_ns", w.Nanoseconds()))
	}
}

// Put archives data under id: encode, disperse one shard per node, and
// open an integrity chain.
func (v *Vault) Put(id string, data []byte) error {
	return v.PutContext(context.Background(), id, data)
}

// PutContext is Put rooted in (or joined to) a trace: the whole write
// becomes a "vault.put" span with encode, staging, and retry backoff
// attributed below it. With tracing disabled it records exactly the flat
// vault.put.ok/.err histograms Put always has.
func (v *Vault) PutContext(ctx context.Context, id string, data []byte) error {
	ctx, sp := v.tracer.Start(ctx, "vault.put",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()), trace.Int("bytes", len(data)))
	start := time.Now()
	err := v.put(ctx, id, data)
	v.obsm.putNsByEnc.Observe(float64(time.Since(start).Nanoseconds()))
	sp.End(err)
	return err
}

func (v *Vault) put(ctx context.Context, id string, data []byte) error {
	st := v.stripe(id)
	// Cheap early check; racing Puts of the same id are caught again at
	// reservation time below.
	st.mu.RLock()
	_, exists := st.objects[id]
	st.mu.RUnlock()
	if exists {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	if v.chunkSize > 0 && len(data) > v.chunkSize {
		return v.putChunked(ctx, id, data)
	}
	// The CPU-heavy work — encoding and chain construction — runs outside
	// every lock so that concurrent Puts overlap even within a stripe.
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(data)))
	encStart := time.Now()
	enc, err := v.Encoding.Encode(data, v.rnd)
	esp.End(err)
	if err != nil {
		return err
	}
	observeRate(v.obsm.encodeMBs, len(data), time.Since(encStart))
	v.obsm.putBytes.Observe(float64(len(data)))
	chain, err := tstamp.New(data, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	if err != nil {
		return err
	}

	// Reserve the id: insert a non-live entry with its writer lock held,
	// so duplicate Puts fail fast while concurrent Gets that find the
	// entry block until the dispersal commits (then read it) or aborts
	// (then see ErrNotFound). The stripe mutex covers only the map
	// insert; locking the fresh object cannot block.
	obj := &vaultObject{}
	obj.mu.Lock()
	st.mu.Lock()
	if _, ok := st.objects[id]; ok {
		st.mu.Unlock()
		obj.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	st.objects[id] = obj
	st.mu.Unlock()

	// Stage-then-commit outside the stripe lock: a multi-shard write that
	// fails partway aborts its stage and leaves no committed shards
	// behind — no orphans inflating StoredBytes, no registered entry.
	if err := v.disperse(ctx, id, enc); err != nil {
		st.mu.Lock()
		delete(st.objects, id)
		st.mu.Unlock()
		obj.mu.Unlock()
		return err
	}
	// The vault keeps client-side secrets and the chain; shards live on
	// nodes only.
	obj.enc = &Encoded{
		Scheme:       enc.Scheme,
		PlainLen:     enc.PlainLen,
		ClientSecret: enc.ClientSecret,
		PublicMeta:   enc.PublicMeta,
	}
	obj.chain = chain
	obj.digests = ShardDigests(enc.Shards)
	obj.width = len(enc.Shards)
	obj.live.Store(true)
	// Defensive invalidation while the write lock is still held: a fresh
	// id cannot have an entry unless it was deleted and re-put, in which
	// case Delete already dropped it — but the hook costs one map probe
	// and keeps "every mutator invalidates" unconditional.
	v.cacheInvalidate(id)
	obj.mu.Unlock()
	return nil
}

// cacheInvalidate drops id's read-cache entry (no-op without a cache).
// Every mutator calls it while holding the object's write lock; see the
// coherence rules in cache.go.
func (v *Vault) cacheInvalidate(id string) {
	if v.cache != nil {
		v.cache.invalidate(id)
	}
}

// disperse writes one encoding's shards to the cluster atomically: every
// shard is staged under a fresh stage token (retrying transient faults
// per the vault's policy), then the whole set commits as a single key
// swap. Any staging error aborts the stage, so the cluster never holds a
// mix of old and new shards for the object. Callers hold the object's
// write lock (never a stripe lock): concurrent dispersals of distinct
// objects overlap fully, and the atomic stageSeq keeps their tokens
// distinct.
func (v *Vault) disperse(ctx context.Context, id string, enc *Encoded) error {
	stage := v.newStageToken(id)
	ctx, ssp := trace.Child(ctx, "cluster.stage", trace.Str("object", id))
	if err := v.stageShards(ctx, stage, id, 0, enc.Shards); err != nil {
		v.Cluster.AbortStage(stage)
		ssp.Event("stage.aborted")
		ssp.End(err)
		return err
	}
	n, err := v.Cluster.CommitStage(stage)
	if err != nil {
		// The commit did not land (I/O failure, crash). Best-effort abort
		// releases whatever the backend still holds parked; on a crashed
		// disk store recovery discards the orphaned stage at the next Open.
		v.Cluster.AbortStage(stage)
		ssp.Event("stage.aborted")
		ssp.End(err)
		return fmt.Errorf("core: commit %s: %w", id, err)
	}
	ssp.Event("stage.committed", trace.Int("shards", n))
	ssp.End(nil)
	return nil
}

// cleanupStrayShards removes shards a rewrite left behind when it
// narrowed the stripe (the encoding was reconfigured between writes) or
// shortened the chunk list. Old keys beyond the new shape are deleted;
// absent keys are no-ops, so over-approximating is safe.
func (v *Vault) cleanupStrayShards(id string, oldWidth, oldChunks, newWidth, newChunks int) {
	for ci := 0; ci < oldChunks; ci++ {
		lo := 0
		if ci < newChunks {
			lo = newWidth
		}
		for i := lo; i < oldWidth; i++ {
			v.Cluster.Delete(i, cluster.ShardKey{Object: id, Index: i, Chunk: ci})
		}
	}
}

// newStageToken mints a stage token unique across concurrent dispersals.
func (v *Vault) newStageToken(id string) string {
	return fmt.Sprintf("vault:%s#%d", id, v.stageSeq.Add(1))
}

// stageShards stages one chunk's shards under an open stage token,
// retrying transient faults per the vault's policy. The caller owns the
// token's lifecycle: commit after every chunk is staged, abort on any
// error — that single commit is what keeps multi-chunk and multi-member
// writes atomic.
func (v *Vault) stageShards(ctx context.Context, stage, id string, chunk int, shards [][]byte) error {
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		i, sh := i, sh
		err := cluster.RetryTransientCtx(ctx, v.retry, func() error {
			return v.Cluster.PutStagedCtx(ctx, i, stage, cluster.ShardKey{Object: id, Index: i, Chunk: chunk}, sh)
		})
		if err != nil {
			return fmt.Errorf("core: disperse %s chunk %d shard %d: %w", id, chunk, i, err)
		}
	}
	return nil
}

// Get retrieves and integrity-checks an object.
func (v *Vault) Get(id string) ([]byte, error) {
	return v.GetContext(context.Background(), id)
}

// GetContext is Get rooted in (or joined to) a trace: the read becomes a
// "vault.get" span over the stripe fetch (per-node probes with typed
// failure events), decode, and verify stages — the breakdown a degraded
// read needs to explain where its latency went. With tracing disabled it
// records exactly the flat vault.get.ok/.err histograms Get always has.
func (v *Vault) GetContext(ctx context.Context, id string) ([]byte, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.get",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	start := time.Now()
	data, err := v.get(ctx, id)
	v.obsm.getNsByEnc.Observe(float64(time.Since(start).Nanoseconds()))
	if err == nil {
		sp.SetAttrs(trace.Int("bytes", len(data)))
	}
	sp.End(err)
	return data, err
}

func (v *Vault) get(ctx context.Context, id string) ([]byte, error) {
	obj := v.lookup(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.RLock)
	defer obj.mu.RUnlock()
	if !obj.live.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	// The epoch is captured before the cache probe AND before the stripe
	// fetch: an entry inserted below is reachable only while the cluster
	// is still in the epoch the read began in, so an AdvanceEpoch racing
	// this read can only make the insert unreachable — never stale.
	epoch := v.Cluster.Epoch()
	if v.cache != nil {
		if cached, ok := v.cacheGet(ctx, id, epoch); ok {
			// Callers own Get's result; hand out a copy so writes to it
			// cannot corrupt the immutable cached entry.
			return append([]byte(nil), cached...), nil
		}
	}
	data, err := v.readObject(ctx, id, obj)
	if err == nil && v.cache != nil {
		// Insert under the still-held read lock: any later mutation of
		// this object must take the write lock first, and its
		// invalidate(id) then runs strictly after this insert.
		v.cache.put(id, epoch, data)
	}
	return data, err
}

// cacheGet probes the read cache, recording hit/miss metrics and the
// hit-latency histogram. The returned slice is the cache's immutable
// copy.
func (v *Vault) cacheGet(ctx context.Context, id string, epoch int) ([]byte, bool) {
	start := time.Now()
	cached, ok := v.cache.get(id, epoch)
	if !ok {
		v.obsm.cacheMiss.Inc()
		return nil, false
	}
	v.obsm.cacheHit.Inc()
	v.obsm.cacheHitNs.Observe(float64(time.Since(start).Nanoseconds()))
	v.obsm.getBytes.Observe(float64(len(cached)))
	trace.FromContext(ctx).Event("cache.hit", trace.Int("bytes", len(cached)))
	return cached, true
}

// readObject is the degraded k-of-n read body; callers hold obj.mu (read
// or write) and have checked liveness. The stripe fetch fans out the
// decoder's minimum plus speculative probes, retries transient faults
// with bounded backoff, discards shards whose digest no longer matches
// (bit rot, tampering) and pulls from further nodes instead, stopping as
// soon as the minimum is in hand.
//
// A read that had to discard rotted shards still succeeds, but queues
// the object for ScrubAll (see DirtyObjects) — routing around bit rot
// must trigger a repair, not hide the damage. A read that cannot reach
// the encoding's minimum returns *DegradedError (errors.Is ErrDegraded)
// carrying got/want and the per-node causes, never a raw decode error.
func (v *Vault) readObject(ctx context.Context, id string, obj *vaultObject) ([]byte, error) {
	if obj.batch != nil {
		return v.readBatchMember(ctx, id, obj)
	}
	if len(obj.chunks) > 0 {
		return v.readChunked(ctx, id, obj)
	}
	sp := trace.FromContext(ctx)
	n, min := v.Encoding.Shards()
	res := v.Cluster.FetchStripeCtx(ctx, id, n, min, v.retry, func(i int, data []byte) bool {
		return i < len(obj.digests) && sha256.Sum256(data) == obj.digests[i]
	})
	if len(res.Discarded) > 0 {
		v.obsm.readDiscarded.Add(int64(len(res.Discarded)))
		v.markDirty(id)
		sp.Event("read.dirty", trace.Int("discarded", len(res.Discarded)))
	}
	if res.Canceled != nil {
		// The caller went away mid-read: this is cancellation, not a
		// degraded stripe — surface the context error so errors.Is
		// (err, context.Canceled) holds for the abandoning client.
		return nil, fmt.Errorf("core: get %s: %w", id, res.Canceled)
	}
	if res.Fetched < min {
		v.obsm.readInsufficient.Inc()
		sp.Event("read.insufficient", trace.Int("got", res.Fetched), trace.Int("want", min))
		return nil, &DegradedError{Object: id, Got: res.Fetched, Want: min, Failures: res.Failures}
	}
	if res.Degraded() {
		v.obsm.readDegraded.Inc()
	}
	enc := &Encoded{
		Scheme:       obj.enc.Scheme,
		PlainLen:     obj.enc.PlainLen,
		Shards:       res.Shards,
		ClientSecret: obj.enc.ClientSecret,
		PublicMeta:   obj.enc.PublicMeta,
	}
	_, dsp := trace.Child(ctx, "vault.decode", trace.Int("shards", res.Fetched))
	decStart := time.Now()
	data, err := v.Encoding.Decode(enc)
	dsp.End(err)
	if err != nil {
		return nil, err
	}
	observeRate(v.obsm.decodeMBs, len(data), time.Since(decStart))
	v.obsm.getBytes.Observe(float64(len(data)))
	_, vsp := trace.Child(ctx, "vault.verify")
	err = obj.chain.VerifyData(data)
	vsp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: integrity chain rejects data for %s: %w", id, err)
	}
	return data, nil
}

// markDirty queues an object for the next ScrubAll after a read had to
// discard rotted shards. Safe while holding the object's lock: stripe
// mutexes are leaf locks (see the lock-order note on Vault.stripes).
func (v *Vault) markDirty(id string) {
	st := v.stripe(id)
	st.mu.Lock()
	st.dirty[id] = struct{}{}
	st.mu.Unlock()
}

// clearDirty removes an object from the scrub queue once its stripe is
// known healthy again.
func (v *Vault) clearDirty(id string) {
	st := v.stripe(id)
	st.mu.Lock()
	delete(st.dirty, id)
	st.mu.Unlock()
}

// DirtyObjects lists objects queued for scrubbing because a read
// discarded at least one of their shards since the last scrub.
func (v *Vault) DirtyObjects() []string {
	var out []string
	for i := range v.stripes {
		st := &v.stripes[i]
		st.mu.RLock()
		for id := range st.dirty {
			out = append(out, id)
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// RenewIntegrity appends a fresh signature (rotating schemes) to the
// object's timestamp chain.
func (v *Vault) RenewIntegrity(id string, scheme sig.Scheme) error {
	obj := v.lookup(id)
	if obj == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	obj.mu.Lock()
	defer obj.mu.Unlock()
	if !obj.live.Load() {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if obj.batch != nil {
		// Batch members share one chain; serialise against batchmates.
		obj.batch.mu.Lock()
		defer obj.batch.mu.Unlock()
	}
	return obj.chain.Renew(scheme, v.Cluster.Epoch(), v.rnd)
}

// RenewShares re-encodes the object with fresh randomness and rewrites
// every shard — the generic renewal that works for any encoding (at full
// re-encode cost; sharing-specific systems do better, see pss). The whole
// read-reencode-rewrite sequence holds the object's write lock: a
// concurrent Get of the same object must never observe a half-rewritten
// shard set, while operations on other objects proceed untouched. The
// rewrite itself is stage-then-commit: a node failing mid-renewal aborts
// the stage and the cluster keeps the old encoding intact, so the object
// never ends up with mixed-epoch shards under a stale ClientSecret.
func (v *Vault) RenewShares(id string) error {
	return v.RenewSharesContext(context.Background(), id)
}

// RenewSharesContext is RenewShares rooted in (or joined to) a trace:
// the read-back, re-encode, and staged rewrite all nest under one
// "vault.renew" span.
func (v *Vault) RenewSharesContext(ctx context.Context, id string) error {
	ctx, sp := v.tracer.Start(ctx, "vault.renew",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	err := v.renewShares(ctx, id)
	sp.End(err)
	return err
}

func (v *Vault) renewShares(ctx context.Context, id string) error {
	obj := v.lookup(id)
	if obj == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.Lock)
	defer obj.mu.Unlock()
	if !obj.live.Load() {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	// The rewrite changes the shard set (and, across an epoch boundary,
	// the epoch a fresh read would record); drop the cached plaintext
	// before dispersal so no entry from the pre-renewal stripe survives
	// the write lock.
	v.cacheInvalidate(id)
	if obj.batch != nil {
		return v.renewBatchMember(ctx, id, obj)
	}
	data, err := v.readObject(ctx, id, obj)
	if err != nil {
		return err
	}
	if len(obj.chunks) > 0 {
		// Chunked objects renew through the same pipelined encode→stage
		// path Put used; the single commit keeps the rewrite atomic.
		metas, err := v.disperseChunked(ctx, id, data)
		if err != nil {
			return fmt.Errorf("core: renewal of %s rolled back: %w", id, err)
		}
		oldWidth, oldChunks := obj.width, len(obj.chunks)
		obj.chunks = metas
		obj.width = len(metas[0].digests)
		v.cleanupStrayShards(id, oldWidth, oldChunks, obj.width, len(metas))
		return nil
	}
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(data)))
	enc, err := v.Encoding.Encode(data, v.rnd)
	esp.End(err)
	if err != nil {
		return err
	}
	if err := v.disperse(ctx, id, enc); err != nil {
		return fmt.Errorf("core: renewal of %s rolled back: %w", id, err)
	}
	obj.enc.ClientSecret = enc.ClientSecret
	obj.enc.PublicMeta = enc.PublicMeta
	obj.enc.PlainLen = enc.PlainLen
	obj.digests = ShardDigests(enc.Shards)
	oldWidth := obj.width
	obj.width = len(enc.Shards)
	v.cleanupStrayShards(id, oldWidth, 1, obj.width, 1)
	return nil
}

// Delete removes an object: liveness drops first (so concurrent Gets
// and Scrubs see ErrNotFound), then every node drops its shard, and the
// registry entry goes last — while shards are still being removed the
// id stays reserved, so a racing re-Put of the same id cannot commit a
// fresh stripe that this delete would then eat. Shard removal is a
// metadata operation that always succeeds, mirroring how CommitStage
// treats already-moved bytes.
func (v *Vault) Delete(id string) error {
	return v.DeleteContext(context.Background(), id)
}

// DeleteContext is Delete rooted in (or joined to) a trace as one
// "vault.delete" span.
func (v *Vault) DeleteContext(ctx context.Context, id string) error {
	ctx, sp := v.tracer.Start(ctx, "vault.delete",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	err := v.deleteObject(ctx, id)
	sp.End(err)
	return err
}

func (v *Vault) deleteObject(ctx context.Context, id string) error {
	obj := v.lookup(id)
	if obj == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.Lock)
	defer obj.mu.Unlock()
	if !obj.live.Load() {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	obj.live.Store(false)
	v.cacheInvalidate(id)
	if obj.batch != nil {
		v.releaseBatchMember(id, obj)
	} else {
		// Delete the stripe actually written (obj.width), not whatever the
		// vault's current encoding would produce — the two diverge when
		// Encoding is reconfigured after the Put, and the wider stale value
		// would be strand-free only by luck.
		n := obj.width
		if n == 0 {
			n, _ = v.Encoding.Shards() // pre-width entry (defensive)
		}
		chunks := len(obj.chunks)
		if chunks == 0 {
			chunks = 1
		}
		for c := 0; c < chunks; c++ {
			for i := 0; i < n; i++ {
				v.Cluster.Delete(i, cluster.ShardKey{Object: id, Index: i, Chunk: c})
			}
		}
	}
	st := v.stripe(id)
	st.mu.Lock()
	delete(st.objects, id)
	delete(st.dirty, id)
	st.mu.Unlock()
	return nil
}

// ExportEvidence serialises an object's timestamp chain for off-archive
// escrow: integrity evidence is itself archival data and must survive
// this process. In commitment mode the export contains no digest of the
// data — it is safe to publish. Export is on the evidence path: the
// commitment is re-opened in full first, so evidence whose commitment
// no longer matches the retained opening is refused, not escrowed.
func (v *Vault) ExportEvidence(id string) ([]byte, error) {
	obj := v.lookup(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if !obj.live.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if obj.batch != nil {
		obj.batch.mu.RLock()
		defer obj.batch.mu.RUnlock()
	}
	if err := obj.chain.VerifyOpening(); err != nil {
		return nil, fmt.Errorf("core: export evidence for %s: %w", id, err)
	}
	return obj.chain.Marshal()
}

// Chain exposes an object's timestamp chain.
func (v *Vault) Chain(id string) *tstamp.Chain {
	obj := v.lookup(id)
	if obj == nil {
		return nil
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if !obj.live.Load() {
		return nil
	}
	return obj.chain
}

// StorageCost measures the object's at-rest overhead from the cluster.
func (v *Vault) StorageCost(id string) float64 {
	obj := v.lookup(id)
	if obj == nil {
		return 0
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if !obj.live.Load() || obj.enc.PlainLen == 0 {
		return 0
	}
	if obj.batch != nil {
		// Members share one stripe; report the blob's overhead ratio, the
		// same for every batchmate.
		bs := obj.batch
		bs.mu.RLock()
		defer bs.mu.RUnlock()
		if bs.blobLen == 0 {
			return 0
		}
		return float64(v.Cluster.ObjectBytes(bs.id)) / float64(bs.blobLen)
	}
	return float64(v.Cluster.ObjectBytes(id)) / float64(obj.enc.PlainLen)
}

// Objects lists stored object ids (unordered). Entries still dispersing
// their initial Put (or mid-Delete) are skipped.
func (v *Vault) Objects() []string {
	var out []string
	for i := range v.stripes {
		st := &v.stripes[i]
		st.mu.RLock()
		for id, obj := range st.objects {
			if obj.live.Load() {
				out = append(out, id)
			}
		}
		st.mu.RUnlock()
	}
	return out
}
