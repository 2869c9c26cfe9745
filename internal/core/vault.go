package core

import (
	"bytes"
	"context"
	"crypto/rand"
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

// DefaultChunkSize is the writer's chunk size: objects are split into
// fixed-size chunks that flow through encode→stage as a bounded pipeline
// (see pipeline.go). 1 MiB keeps each
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
	Cluster *cluster.Cluster
	// Encoding is the encoding for new writes and renewals. Each object
	// records the encoding that wrote it and is read and scrubbed under
	// that, so changing Encoding leaves every stored object readable; an
	// object moves to the new encoding at its next RenewShares. It may be
	// changed only while no operation is in flight.
	Encoding Encoding
	// IntegrityMode is ignored by the vault: each object's chain mode
	// follows its encoding (chainMode in pipeline.go). Only the benchmark
	// still reads it, and ROADMAP item 1's benchmark change deletes it.
	IntegrityMode tstamp.RefMode
	Group         *group.Group
	rnd           io.Reader

	// retry bounds per-node retries on transient cluster faults.
	retry cluster.RetryPolicy

	// chunkSize bounds how much of an object a single encode works on:
	// every object is a list of chunkSize stripes (pipeline.go).
	chunkSize int

	// stripes shard the object registry (and the dirty queue) by
	// fnv(id) % stripeCount. A stripe's mutex guards only its maps —
	// lookup, insert, remove — never the I/O or CPU work of an operation,
	// which runs under the object's own lock (or no lock at all for
	// encode). Lock order: a goroutine may acquire a stripe mutex while
	// holding an object mutex (dirty marking, registry removal), but must
	// never block on a contended object mutex while holding any stripe
	// mutex — reserve locks only a freshly created object that no other
	// goroutine can reach yet.
	stripes [stripeCount]vaultStripe

	// sweepMu serialises cross-object sweeps (ScrubAll today; an
	// epoch-wide renewal campaign would take it too) against each other,
	// so two concurrent sweeps don't double-repair the same stripes.
	// Per-object operations never touch it.
	sweepMu sync.Mutex

	// stageSeq uniquifies stage tokens across concurrent dispersals.
	stageSeq atomic.Int64

	// streamBuffered/streamPeak meter the streaming writer's in-flight
	// plaintext bytes (read from the client but not yet staged on the
	// cluster) and the high-water mark across the vault's lifetime —
	// the evidence that streaming ingest is O(chunk), not O(object).
	// Read by StreamPeakBuffered; see stream.go.
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

	// obsReg/obsm are the metrics registry and pre-resolved instruments;
	// see degraded.go. tracer times every vault op (Put/Get/Renew/Scrub/
	// Delete) into obsReg's vault.<op>.{ok,err} histograms and, enabled,
	// roots one hierarchical trace per op.
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

	// layout is the object's chunk stripes and chain; see pipeline.go.
	layout
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

// acquire looks id up and takes its lock — the write side when excl —
// recording the wait; an absent or non-live entry is ErrNotFound, with
// nothing held.
func (v *Vault) acquire(ctx context.Context, id string, excl bool) (*vaultObject, error) {
	if obj := v.lookup(id); obj != nil {
		lock, unlock := obj.mu.RLock, obj.mu.RUnlock
		if excl {
			lock, unlock = obj.mu.Lock, obj.mu.Unlock
		}
		v.lockWait(trace.FromContext(ctx), lock)
		if obj.live.Load() {
			return obj, nil
		}
		unlock()
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// reserve inserts a non-live registry entry for id with its write lock
// held, so duplicate writes fail fast while concurrent readers that find
// the entry block until the write commits (then read it) or aborts (then
// see ErrNotFound). The stripe mutex covers only the map insert; locking
// the fresh object cannot block.
func (v *Vault) reserve(id string) (*vaultObject, error) {
	obj := &vaultObject{}
	obj.mu.Lock()
	st := v.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.objects[id]; ok {
		obj.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	st.objects[id] = obj
	return obj, nil
}

// unregister drops id's registry entry and any scrub mark: a reservation
// whose write rolled back, or a deleted object.
func (v *Vault) unregister(id string) {
	st := v.stripe(id)
	st.mu.Lock()
	delete(st.objects, id)
	delete(st.dirty, id)
	st.mu.Unlock()
}

// Errors returned by Vault.
var (
	ErrNotFound = errors.New("core: object not found")
	ErrExists   = errors.New("core: object already exists")
)

// VaultOption configures NewVault.
type VaultOption func(*Vault)

// WithGroup overrides the commitment group, group.Default(). It stays only
// because the benchmark module's tests still pass it (ROADMAP item 1a
// deletes those calls, then WithGroup).
func WithGroup(g *group.Group) VaultOption {
	return func(v *Vault) { v.Group = g }
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

// WithChunkSize sets the writer's chunk size (DefaultChunkSize
// otherwise; n <= 0 keeps it): objects larger than n bytes are split
// into n-byte chunks whose encode and staging overlap as a bounded
// pipeline, instead of encode-all-then-disperse-all. Tests use small n
// to exercise multi-chunk objects cheaply.
func WithChunkSize(n int) VaultOption {
	return func(v *Vault) {
		if n > 0 {
			v.chunkSize = n
		}
	}
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
		Cluster:    c,
		Encoding:   enc,
		Group:      group.Default(),
		rnd:        rand.Reader,
		retry:      cluster.DefaultRetry,
		chunkSize:  DefaultChunkSize,
		cacheShare: DefaultCacheTenantShare,
		obsReg:     obs.Default(),
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

// lockWait acquires lock() and, on a recording span, attributes a wait
// of a millisecond or more to it — the contention attribution for the
// striped design: invisible when traffic spreads across objects, visible
// when workers pile onto one id.
func (v *Vault) lockWait(sp trace.Span, lock func()) {
	if !sp.Recording() {
		lock()
		return
	}
	start := time.Now()
	lock()
	if w := time.Since(start); w >= time.Millisecond {
		sp.SetAttrs(trace.Int64("lock_wait_ns", w.Nanoseconds()))
	}
}

// Put archives data under id: encode, disperse one shard per node, and
// open an integrity chain. It is PutReader over the slice.
func (v *Vault) Put(ctx context.Context, id string, data []byte) error {
	_, err := v.PutReader(ctx, id, bytes.NewReader(data))
	return err
}

// cacheInvalidate drops id's read-cache entry (no-op without a cache).
// Every mutator calls it while holding the object's write lock; see the
// coherence rules in cache.go.
func (v *Vault) cacheInvalidate(id string) {
	if v.cache != nil {
		v.cache.invalidate(id)
	}
}

// Get retrieves and integrity-checks an object: ReadTo into a buffer the
// caller owns — never an alias of a cache entry.
func (v *Vault) Get(ctx context.Context, id string) ([]byte, error) {
	var sink chunkSink
	if _, err := v.ReadTo(ctx, id, &sink); err != nil {
		return nil, err
	}
	return sink.whole, nil
}

// cacheGet probes the read cache, recording the hit or miss. The
// returned slice is the cache's immutable copy.
func (v *Vault) cacheGet(ctx context.Context, id string, epoch int) ([]byte, bool) {
	cached, ok := v.cache.get(id, epoch)
	if !ok {
		v.obsm.cacheMiss.Inc()
		return nil, false
	}
	v.obsm.cacheHit.Inc()
	trace.FromContext(ctx).Event("cache.hit", trace.Int("bytes", len(cached)))
	return cached, true
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
// object's timestamp chain, as a "vault.renew" span with mode=integrity.
func (v *Vault) RenewIntegrity(ctx context.Context, id string, scheme sig.Scheme) (err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.renew", trace.Str("object", id), trace.Str("mode", "integrity"))
	defer func() { sp.End(err) }()
	obj, err := v.acquire(ctx, id, true)
	if err != nil {
		return err
	}
	defer obj.mu.Unlock()
	return obj.chain.Renew(scheme, v.Cluster.Epoch(), v.rnd)
}

// RenewShares re-encodes the object with fresh randomness and rewrites
// every chunk stripe — the generic renewal that works for any encoding.
// It writes under the vault's current Encoding, so after Encoding changes
// it is also the re-encode that moves the object to the new one. The
// renewal streams: readStripes writes the checked plaintext into a pipe
// from one goroutine and write reads it, so only a few chunks are ever in
// memory, never the whole object. write sees EOF only after the reader
// has returned, and it changes the layout only after EOF; on any error it
// changes nothing. Closing the read end with write's error stops a
// reader that write abandoned, and the goroutine is joined before
// RenewShares returns; a failed read is returned as it is.
// The whole read-reencode-rewrite sequence holds the object's write
// lock: a concurrent Get of the same object must never observe a
// half-rewritten shard set, while operations on other objects proceed
// untouched. The rewrite itself is stage-then-commit: a node failing
// mid-renewal aborts the stage and the cluster keeps the old encoding
// intact, so the object never ends up with mixed-epoch shards under a
// stale ClientSecret. The chain is kept, since the plaintext it binds is
// unchanged, unless a hash chain's object moves to an encoding that
// hides its bytes: then write upgrades it to a commitment chain, inside
// the same all-or-nothing rewrite. The read-back, re-encode, and staged
// rewrite all nest under one "vault.renew" span (mode=shares) naming the
// target encoding, and the one it moves from when they differ.
func (v *Vault) RenewShares(ctx context.Context, id string) (err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.renew", trace.Str("object", id),
		trace.Str("mode", "shares"), trace.Str("encoding", v.Encoding.Name()))
	defer func() { sp.End(err) }()
	obj, err := v.acquire(ctx, id, true)
	if err != nil {
		return err
	}
	defer obj.mu.Unlock()
	if obj.enc != v.Encoding {
		sp.SetAttrs(trace.Str("from", obj.enc.Name()))
	}
	// The rewrite changes the shard set (and, across an epoch boundary,
	// the epoch a fresh read would record); drop the cached plaintext
	// before dispersal so no entry from the pre-renewal stripe survives
	// the write lock.
	v.cacheInvalidate(id)
	pr, pw := io.Pipe()
	read := make(chan error, 1)
	go func() {
		_, err := v.readStripes(ctx, id, &obj.layout, pw)
		pw.CloseWithError(err)
		read <- err
	}()
	err = v.write(ctx, &obj.layout, pr)
	pr.CloseWithError(err)
	if rerr := <-read; rerr != nil && errors.Is(err, rerr) {
		return rerr // the write stopped at the read's failure
	}
	if err != nil {
		return fmt.Errorf("core: renewal of %s rolled back: %w", id, err)
	}
	return nil
}

// DeleteContext removes an object as one "vault.delete" span: liveness
// drops first (so concurrent Gets and Scrubs see ErrNotFound), then every
// node drops its shards, and the registry entry goes last — while shards
// are still being removed the id stays reserved, so a racing re-Put of
// the same id cannot commit a fresh stripe that this delete would then
// eat. Shard removal is a metadata operation that always succeeds,
// mirroring how CommitStage treats already-moved bytes.
func (v *Vault) DeleteContext(ctx context.Context, id string) (err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.delete", trace.Str("object", id))
	defer func() { sp.End(err) }()
	obj, err := v.acquire(ctx, id, true)
	if err != nil {
		return err
	}
	defer obj.mu.Unlock()
	sp.SetAttrs(trace.Str("encoding", obj.enc.Name()))
	obj.live.Store(false)
	v.cacheInvalidate(id)
	v.replaceChunks(&obj.layout, nil)
	v.unregister(id)
	return nil
}

// ExportEvidence serialises an object's timestamp chain for off-archive
// escrow: integrity evidence is itself archival data and must survive
// this process. An object under an encoding that hides its bytes has a
// commitment chain, whose export contains no digest of the data — it is
// safe to publish. A class-none object's hash chain is its digest, which
// lets a holder confirm a guess of bytes the nodes already hold in the
// clear. Export is on the evidence path: the reference is re-checked in
// full first (tstamp.Chain.VerifyOpening), so evidence whose commitment
// no longer matches the retained opening, or whose digest is no longer
// what link 0 signed, is refused, not escrowed.
func (v *Vault) ExportEvidence(id string) ([]byte, error) {
	obj, err := v.acquire(context.Background(), id, false)
	if err != nil {
		return nil, err
	}
	defer obj.mu.RUnlock()
	if err := obj.chain.VerifyOpening(); err != nil {
		return nil, fmt.Errorf("core: export evidence for %s: %w", id, err)
	}
	return obj.chain.Marshal()
}

// Chain exposes an object's timestamp chain.
func (v *Vault) Chain(id string) *tstamp.Chain {
	obj, err := v.acquire(context.Background(), id, false)
	if err != nil {
		return nil
	}
	defer obj.mu.RUnlock()
	return obj.chain
}

// StorageCost measures the object's at-rest overhead from the cluster.
func (v *Vault) StorageCost(id string) float64 {
	obj, err := v.acquire(context.Background(), id, false)
	if err != nil {
		return 0
	}
	defer obj.mu.RUnlock()
	if obj.plainLen == 0 {
		return 0
	}
	return float64(v.Cluster.ObjectBytes(obj.id)) / float64(obj.plainLen)
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
