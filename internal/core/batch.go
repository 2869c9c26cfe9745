package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// Batched small-object writes: many small Puts are packed into one blob,
// encoded once, and dispersed as a single stripe — amortising the fixed
// per-put costs (integrity chain construction, per-shard staging round
// trips, commit) that dominate when objects are a few KiB. Every member
// keeps its own registry entry, id, and Get/Delete/Scrub semantics; only
// the storage representation is shared.
//
// Concurrency: members of one batch share a batchState guarded by its own
// RWMutex. The lock order is object mutex → batch mutex → stripe mutex
// (a strict extension of the vault's object → stripe order), so member
// operations on the same batch serialise at the batch lock while members
// of different batches stay fully independent.

// Batch defaults; see the corresponding Batcher options.
const (
	// DefaultBatchMaxMembers caps how many members one flush packs into a
	// single blob stripe.
	DefaultBatchMaxMembers = 64
	// DefaultBatchMaxAge bounds how long an enqueued put may wait before a
	// flush starts. The batcher drains eagerly — a new flush begins the
	// moment the previous one finishes, and a lone put flushes immediately
	// rather than lingering for company — so observed waits (the
	// vault.batch.wait_ns histogram) stay far below this bound unless
	// staging itself stalls on retries.
	DefaultBatchMaxAge = 2 * time.Millisecond
	// DefaultBatchBypassBytes routes large puts around the batcher: above
	// this size the fixed per-put costs no longer dominate and batching
	// only adds blob-decode overhead to every member read.
	DefaultBatchBypassBytes = 64 << 10
)

// batchIDPrefix namespaces the cluster object ids batch blobs are stored
// under. The prefix is reserved: user object ids should not start with it
// (member registry entries never collide — only the node-side shard keys
// would).
const batchIDPrefix = "!batch:"

// ErrBatcherClosed is returned by Batcher.Put after Close.
var ErrBatcherClosed = errors.New("core: batcher closed")

// batchState is the shared client-side state of one committed batch: the
// blob stripe's encoding metadata, the single integrity chain covering
// the blob, and the member directory. Guarded by mu; see the lock-order
// note above.
type batchState struct {
	mu sync.RWMutex
	// id is the cluster object id the blob's shards are stored under.
	id string
	// enc is the blob's encoding metadata (shards stripped — those live
	// on nodes); blobLen is len(blob), kept for bounds checks after enc
	// is renewed.
	enc     *Encoded
	blobLen int
	// chain is the one integrity chain per batch, covering the whole
	// blob; every member's vaultObject aliases it.
	chain *tstamp.Chain
	// digests are the blob stripe's per-shard digests.
	digests [][sha256.Size]byte
	// members is the directory: offsets into the blob plus per-member
	// payload digests. Indexed by vaultObject.batchIndex.
	members []batchMember
	// live counts members not yet deleted. Deleting a member only marks
	// it released — the blob keeps its bytes (no compaction) — and the
	// stripe's shards are dropped when the last member goes.
	live int
}

// batchMember locates one member's payload inside the batch blob.
type batchMember struct {
	id       string
	off, n   int
	digest   [sha256.Size]byte
	released bool
}

// Batcher packs small Puts into shared blob stripes using group commit:
// the first put to arrive while no flush is running becomes the leader,
// takes everything pending (up to MaxMembers), and flushes it as one
// blob; puts arriving during that flush wait and are taken — all of them
// — by the next leader the moment the current flush finishes. The
// thresholds are upper bounds, not timers: nothing ever waits out a
// quiet period, so a lone put costs one flush of one member.
//
// A Batcher is safe for concurrent use; Put blocks until the member's
// batch has committed (or failed). Ids must still be unique vault-wide —
// a duplicate fails that member with ErrExists without failing its
// batchmates.
type Batcher struct {
	v *Vault

	maxMembers  int
	maxAge      time.Duration
	bypassBytes int

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*pendingPut
	flushing bool
	closed   bool
}

// pendingPut is one enqueued member awaiting its batch commit. done/err
// are written under Batcher.mu (or before the done publication for
// per-member failures assigned inside the flush).
type pendingPut struct {
	id   string
	data []byte
	enq  time.Time
	done bool
	err  error
}

// BatcherOption configures NewBatcher.
type BatcherOption func(*Batcher)

// WithBatchMaxMembers caps members per flushed blob
// (DefaultBatchMaxMembers otherwise).
func WithBatchMaxMembers(n int) BatcherOption {
	return func(b *Batcher) {
		if n > 0 {
			b.maxMembers = n
		}
	}
}

// WithBatchMaxAge sets the enqueue-to-flush-start bound
// (DefaultBatchMaxAge otherwise); see the constant's note on how the
// eager drain keeps actual waits far below it.
func WithBatchMaxAge(d time.Duration) BatcherOption {
	return func(b *Batcher) {
		if d > 0 {
			b.maxAge = d
		}
	}
}

// WithBatchBypassBytes sets the size above which Put routes directly to
// the vault's plain write path (DefaultBatchBypassBytes otherwise).
func WithBatchBypassBytes(n int) BatcherOption {
	return func(b *Batcher) {
		if n > 0 {
			b.bypassBytes = n
		}
	}
}

// NewBatcher builds a small-object write batcher over the vault.
func (v *Vault) NewBatcher(opts ...BatcherOption) *Batcher {
	b := &Batcher{
		v:           v,
		maxMembers:  DefaultBatchMaxMembers,
		maxAge:      DefaultBatchMaxAge,
		bypassBytes: DefaultBatchBypassBytes,
	}
	b.cond = sync.NewCond(&b.mu)
	for _, o := range opts {
		o(b)
	}
	return b
}

// Close rejects further puts. In-flight puts complete normally (every
// pending member's goroutine is inside Put and will flush or be flushed).
func (b *Batcher) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}

// Put archives data under id through the batcher, blocking until the
// member's batch commits. Data larger than the bypass threshold goes
// straight to Vault.Put.
func (b *Batcher) Put(id string, data []byte) error {
	return b.PutContext(context.Background(), id, data)
}

// PutContext is Put with the flush (if this goroutine ends up leading
// one) rooted in the caller's trace.
func (b *Batcher) PutContext(ctx context.Context, id string, data []byte) error {
	if len(data) > b.bypassBytes {
		return b.v.PutContext(ctx, id, data)
	}
	p := &pendingPut{id: id, data: append([]byte(nil), data...), enq: time.Now()}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatcherClosed
	}
	b.pending = append(b.pending, p)
	for {
		for !p.done && b.flushing {
			b.cond.Wait()
		}
		if p.done {
			err := p.err
			b.mu.Unlock()
			b.v.obsm.batchWaitNs.Observe(float64(time.Since(p.enq).Nanoseconds()))
			return err
		}
		// Leader: take up to maxMembers from the front of the queue and
		// flush them as one blob. Our own put is in the taken batch unless
		// the queue ran longer than one blob, in which case we flush the
		// older members first and loop to lead (or wait out) the next one.
		b.flushing = true
		if len(b.pending) < b.maxMembers {
			// Cooperative gather: drop the lock and yield once so writers
			// that are runnable right now get to enqueue before the batch
			// is taken. Without this, a single-threaded scheduler would
			// run the flush below to completion against a queue of one and
			// no put would ever find company. This is not a linger — no
			// timer, no waiting for future arrivals; goroutines that are
			// not already runnable miss this batch and seed the next.
			b.mu.Unlock()
			runtime.Gosched()
			b.mu.Lock()
		}
		take := b.pending
		if len(take) > b.maxMembers {
			take = take[:b.maxMembers:b.maxMembers]
			b.pending = b.pending[b.maxMembers:]
		} else {
			b.pending = nil
		}
		b.mu.Unlock()

		ferr := b.v.putBatch(ctx, take)

		b.mu.Lock()
		for _, t := range take {
			if t.err == nil {
				t.err = ferr
			}
			t.done = true
		}
		b.flushing = false
		b.cond.Broadcast()
	}
}

// putBatch flushes one taken batch as a single blob stripe. Members whose
// id already exists get ErrExists individually (set on their pendingPut)
// without failing the batch; the returned error applies to every admitted
// member and means the whole flush rolled back.
func (v *Vault) putBatch(ctx context.Context, batch []*pendingPut) error {
	var bytes int
	for _, p := range batch {
		bytes += len(p.data)
	}
	ctx, sp := v.tracer.Start(ctx, "vault.batch.flush",
		trace.Int("members", len(batch)), trace.Int("bytes", bytes))
	err := v.flushBatch(ctx, batch)
	sp.End(err)
	return err
}

func (v *Vault) flushBatch(ctx context.Context, batch []*pendingPut) error {
	// Reserve a registry entry per member, exactly as Put does, failing
	// duplicates individually. The entries stay non-live until the blob
	// commits, so concurrent Gets treat them as absent.
	var members []*pendingPut
	var objs []*vaultObject
	for _, p := range batch {
		st := v.stripe(p.id)
		obj := &vaultObject{}
		st.mu.Lock()
		if _, ok := st.objects[p.id]; ok {
			st.mu.Unlock()
			p.err = fmt.Errorf("%w: %s", ErrExists, p.id)
			continue
		}
		st.objects[p.id] = obj
		st.mu.Unlock()
		members = append(members, p)
		objs = append(objs, obj)
	}
	if len(members) == 0 {
		return nil
	}
	rollback := func() {
		for _, p := range members {
			st := v.stripe(p.id)
			st.mu.Lock()
			delete(st.objects, p.id)
			st.mu.Unlock()
		}
	}

	ids := make([]string, len(members))
	datas := make([][]byte, len(members))
	for i, p := range members {
		ids[i] = p.id
		datas[i] = p.data
	}
	blob, offs := encodeBatchBlob(ids, datas)

	// One integrity chain and one encode for the whole blob — the
	// amortisation that makes batching pay.
	chain, err := tstamp.New(blob, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	if err != nil {
		rollback()
		return err
	}
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(blob)))
	encStart := time.Now()
	enc, err := v.Encoding.Encode(blob, v.rnd)
	esp.End(err)
	if err != nil {
		rollback()
		return err
	}
	observeRate(v.obsm.encodeMBs, len(blob), time.Since(encStart))

	bid := fmt.Sprintf("%s%d", batchIDPrefix, v.batchSeq.Add(1))
	if err := v.disperse(ctx, bid, enc); err != nil {
		rollback()
		return err
	}

	bs := &batchState{
		id: bid,
		enc: &Encoded{
			Scheme:       enc.Scheme,
			PlainLen:     enc.PlainLen,
			ClientSecret: enc.ClientSecret,
			PublicMeta:   enc.PublicMeta,
		},
		blobLen: len(blob),
		chain:   chain,
		digests: ShardDigests(enc.Shards),
		members: make([]batchMember, len(members)),
		live:    len(members),
	}
	for i, p := range members {
		bs.members[i] = batchMember{
			id:     p.id,
			off:    offs[i],
			n:      len(p.data),
			digest: sha256.Sum256(p.data),
		}
		obj := objs[i]
		obj.enc = &Encoded{Scheme: enc.Scheme, PlainLen: len(p.data)}
		obj.chain = chain
		obj.batch = bs
		obj.batchIndex = i
		obj.live.Store(true)
		v.cacheInvalidate(p.id) // defensive, as in put
		v.obsm.putBytes.Observe(float64(len(p.data)))
	}
	v.obsm.batchPuts.Add(int64(len(members)))
	v.obsm.batchFlushes.Inc()
	v.obsm.batchMembers.Observe(float64(len(members)))
	return nil
}

// fetchBatchBlob performs the degraded k-of-n read of a batch's blob
// stripe, decodes it, and verifies it against the batch's integrity
// chain. Callers hold the batch lock (read or write); memberID is the
// member whose operation triggered the read, used for dirty marking.
func (v *Vault) fetchBatchBlob(ctx context.Context, memberID string, bs *batchState) ([]byte, error) {
	sp := trace.FromContext(ctx)
	n, min := v.Encoding.Shards()
	res := v.Cluster.FetchStripeCtx(ctx, bs.id, n, min, v.retry, func(i int, data []byte) bool {
		return i < len(bs.digests) && sha256.Sum256(data) == bs.digests[i]
	})
	if len(res.Discarded) > 0 {
		v.obsm.readDiscarded.Add(int64(len(res.Discarded)))
		v.markDirty(memberID)
		sp.Event("read.dirty", trace.Int("discarded", len(res.Discarded)))
	}
	if res.Canceled != nil {
		return nil, fmt.Errorf("core: get %s: %w", memberID, res.Canceled)
	}
	if res.Fetched < min {
		v.obsm.readInsufficient.Inc()
		sp.Event("read.insufficient", trace.Int("got", res.Fetched), trace.Int("want", min))
		return nil, &DegradedError{Object: memberID, Got: res.Fetched, Want: min, Failures: res.Failures}
	}
	if res.Degraded() {
		v.obsm.readDegraded.Inc()
	}
	_, dsp := trace.Child(ctx, "vault.decode", trace.Int("shards", res.Fetched))
	decStart := time.Now()
	blob, err := v.Encoding.Decode(&Encoded{
		Scheme:       bs.enc.Scheme,
		PlainLen:     bs.enc.PlainLen,
		Shards:       res.Shards,
		ClientSecret: bs.enc.ClientSecret,
		PublicMeta:   bs.enc.PublicMeta,
	})
	dsp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: decode batch %s: %w", bs.id, err)
	}
	observeRate(v.obsm.decodeMBs, len(blob), time.Since(decStart))
	_, vsp := trace.Child(ctx, "vault.verify")
	err = bs.chain.VerifyData(blob)
	vsp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: integrity chain rejects batch %s: %w", bs.id, err)
	}
	return blob, nil
}

// readBatchMember is the Get body for a batch member: fetch and verify
// the whole blob, then slice out and digest-check this member's payload.
// Callers hold obj.mu and have checked liveness.
func (v *Vault) readBatchMember(ctx context.Context, id string, obj *vaultObject) ([]byte, error) {
	bs := obj.batch
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	blob, err := v.fetchBatchBlob(ctx, id, bs)
	if err != nil {
		return nil, err
	}
	m := &bs.members[obj.batchIndex]
	if m.off+m.n > len(blob) {
		return nil, fmt.Errorf("core: batch %s blob truncated for member %s", bs.id, id)
	}
	data := blob[m.off : m.off+m.n]
	if sha256.Sum256(data) != m.digest {
		return nil, fmt.Errorf("core: batch member %s digest mismatch", id)
	}
	v.obsm.getBytes.Observe(float64(len(data)))
	// Copy so the caller's slice doesn't pin the whole decoded blob.
	return append([]byte(nil), data...), nil
}

// releaseBatchMember is the Delete body for a batch member: the member is
// only marked released — its bytes stay in the blob (no compaction) — and
// the blob stripe's shards are dropped when the last member goes. Callers
// hold obj.mu in write mode and have already cleared liveness.
func (v *Vault) releaseBatchMember(id string, obj *vaultObject) {
	bs := obj.batch
	bs.mu.Lock()
	defer bs.mu.Unlock()
	m := &bs.members[obj.batchIndex]
	if m.released {
		return
	}
	m.released = true
	bs.live--
	if bs.live > 0 {
		return
	}
	// The blob's digests record the stripe width it was actually written
	// with; the vault's current encoding may have been reconfigured since.
	for i := 0; i < len(bs.digests); i++ {
		v.Cluster.Delete(i, cluster.ShardKey{Object: bs.id, Index: i})
	}
}

// renewBatchMember is the RenewShares body for a batch member: the whole
// blob re-encodes with fresh randomness and rewrites its stripe through
// stage-then-commit, renewing every batchmate in the same stroke. Callers
// hold obj.mu in write mode.
func (v *Vault) renewBatchMember(ctx context.Context, id string, obj *vaultObject) error {
	bs := obj.batch
	bs.mu.Lock()
	defer bs.mu.Unlock()
	blob, err := v.fetchBatchBlob(ctx, id, bs)
	if err != nil {
		return err
	}
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(blob)))
	enc, err := v.Encoding.Encode(blob, v.rnd)
	esp.End(err)
	if err != nil {
		return err
	}
	if err := v.disperse(ctx, bs.id, enc); err != nil {
		return fmt.Errorf("core: renewal of %s rolled back: %w", bs.id, err)
	}
	// The blob rewrite leaves every member's plaintext unchanged, but the
	// mutator rule is unconditional: drop the renewing member's entry.
	// (Batchmates' entries stay — their bytes and their stripe's epoch
	// semantics are untouched by construction; only this member's write
	// lock is held.)
	v.cacheInvalidate(id)
	bs.enc.ClientSecret = enc.ClientSecret
	bs.enc.PublicMeta = enc.PublicMeta
	bs.enc.PlainLen = enc.PlainLen
	oldWidth := len(bs.digests)
	bs.digests = ShardDigests(enc.Shards)
	// A narrower re-encode leaves stale high-index shards behind; drop them.
	for i := len(enc.Shards); i < oldWidth; i++ {
		v.Cluster.Delete(i, cluster.ShardKey{Object: bs.id, Index: i})
	}
	return nil
}

// scrubBatchMember is the Scrub body for a batch member: the audit and
// any repair operate on the whole blob stripe (one member's damage IS the
// batch's damage). Callers hold obj.mu in write mode. The report carries
// the member's id; batchmates scrubbed afterwards find the stripe clean.
func (v *Vault) scrubBatchMember(ctx context.Context, id string, obj *vaultObject) (*ScrubReport, error) {
	bs := obj.batch
	bs.mu.Lock()
	defer bs.mu.Unlock()
	n, _ := v.Encoding.Shards()
	res := v.Cluster.FetchStripeCtx(ctx, bs.id, n, n, v.retry, nil)
	if res.Canceled != nil {
		return nil, fmt.Errorf("core: scrub %s: %w", id, res.Canceled)
	}
	shards := res.Shards
	healthy, missing, corrupt := CheckShards(shards, bs.digests)
	rep := &ScrubReport{Object: id, Healthy: healthy, Missing: missing, Corrupt: corrupt}
	if rep.Clean() {
		v.clearDirty(id)
		return rep, nil
	}
	for _, i := range corrupt {
		shards[i] = nil
	}
	_, dsp := trace.Child(ctx, "vault.decode", trace.Int("shards", len(healthy)))
	blob, err := v.Encoding.Decode(&Encoded{
		Scheme:       bs.enc.Scheme,
		PlainLen:     bs.enc.PlainLen,
		Shards:       shards,
		ClientSecret: bs.enc.ClientSecret,
		PublicMeta:   bs.enc.PublicMeta,
	})
	dsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: decode batch %s from %d healthy shards: %w", id, bs.id, len(healthy), err)
	}
	_, vsp := trace.Child(ctx, "vault.verify")
	err = verifyRepairSource(bs.chain, blob)
	vsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: integrity chain rejects recovered batch %s: %w", id, bs.id, err)
	}
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(blob)))
	enc, err := v.Encoding.Encode(blob, v.rnd)
	esp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: re-encode batch %s: %w", id, bs.id, err)
	}
	if err := v.disperse(ctx, bs.id, enc); err != nil {
		return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
	}
	v.cacheInvalidate(id) // see the renewBatchMember note
	bs.enc.ClientSecret = enc.ClientSecret
	bs.enc.PublicMeta = enc.PublicMeta
	bs.enc.PlainLen = enc.PlainLen
	bs.digests = ShardDigests(enc.Shards)
	rep.Repaired = true
	v.obsm.scrubRepairs.Inc()
	trace.FromContext(ctx).Event("scrub.repaired",
		trace.Int("missing", len(rep.Missing)), trace.Int("corrupt", len(rep.Corrupt)))
	v.clearDirty(id)
	return rep, nil
}
