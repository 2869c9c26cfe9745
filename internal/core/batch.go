package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"securearchive/internal/obs/trace"
)

// Batched small-object writes: many small Puts are packed into one blob
// and written as one object — amortising the fixed per-put costs
// (integrity chain construction, per-shard staging round trips, commit)
// that dominate when objects are a few KiB. Every member keeps its own
// registry entry, id, and Get/Delete/Scrub semantics; only the storage
// representation is shared.
//
// Concurrency: members of one batch share a batchState guarded by its own
// RWMutex. The lock order is object mutex → batch mutex → stripe mutex
// (a strict extension of the vault's object → stripe order), so member
// operations on the same batch serialise at the batch lock while members
// of different batches stay fully independent.

const (
	// DefaultBatchMaxMembers caps how many members one flush packs into a
	// single blob stripe; WithBatchMaxMembers overrides it.
	DefaultBatchMaxMembers = 64
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
// blob's chunk stripes and the single integrity chain covering the blob
// (every member's vaultObject aliases it), plus the member directory.
// Guarded by mu; see the lock-order note above.
type batchState struct {
	mu sync.RWMutex
	layout
	// members is the directory: offsets into the blob plus per-member
	// payload digests. Indexed by vaultObject.batchIndex.
	members []batchMember
	// live counts members not yet deleted. Deleting a member only marks
	// it released — the blob keeps its bytes (no compaction) — and the
	// blob's shards are dropped when the last member goes.
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
// takes everything pending (up to maxMembers), and flushes it as one
// blob; puts arriving during that flush wait and are taken — all of them
// — by the next leader the moment the current flush finishes. There is
// no timer: nothing ever waits out a quiet period, so a lone put costs
// one flush of one member.
//
// A Batcher is safe for concurrent use; Put blocks until the member's
// batch has committed (or failed). Ids must still be unique vault-wide —
// a duplicate fails that member with ErrExists without failing its
// batchmates.
type Batcher struct {
	v          *Vault
	maxMembers int

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

// NewBatcher builds a small-object write batcher over the vault.
func (v *Vault) NewBatcher(opts ...BatcherOption) *Batcher {
	b := &Batcher{v: v, maxMembers: DefaultBatchMaxMembers}
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
// member's batch commits; the flush, if this goroutine ends up leading
// one, is rooted in the caller's trace. Data larger than
// DefaultBatchBypassBytes goes straight to Vault.Put.
func (b *Batcher) Put(ctx context.Context, id string, data []byte) error {
	if len(data) > DefaultBatchBypassBytes {
		return b.v.Put(ctx, id, data)
	}
	p := &pendingPut{id: id, data: append([]byte(nil), data...)}
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

// putBatch flushes one taken batch as a single blob stripe, as one
// "vault.batch.flush" span. Members whose id already exists get ErrExists
// individually (set on their pendingPut) without failing the batch; the
// returned error applies to every admitted member and means the whole
// flush rolled back.
func (v *Vault) putBatch(ctx context.Context, batch []*pendingPut) (err error) {
	var size int
	for _, p := range batch {
		size += len(p.data)
	}
	ctx, sp := v.tracer.Start(ctx, "vault.batch.flush",
		trace.Int("members", len(batch)), trace.Int("bytes", size))
	defer func() { sp.End(err) }()
	// Reserve a registry entry per member, exactly as PutReader does,
	// failing duplicates individually. The entries stay non-live, their
	// locks held, until the blob commits.
	var members []*pendingPut
	var objs []*vaultObject
	for _, p := range batch {
		obj, err := v.reserve(p.id)
		if err != nil {
			p.err = err
			continue
		}
		defer obj.mu.Unlock()
		members = append(members, p)
		objs = append(objs, obj)
	}
	if len(members) == 0 {
		return nil
	}
	ids := make([]string, len(members))
	datas := make([][]byte, len(members))
	for i, p := range members {
		ids[i] = p.id
		datas[i] = p.data
	}
	blob, offs := encodeBatchBlob(ids, datas)

	// One integrity chain and one write for the whole blob — the
	// amortisation that makes batching pay. A blob larger than a chunk
	// spans chunks like any object.
	bs := &batchState{
		layout:  layout{id: fmt.Sprintf("%s%d", batchIDPrefix, v.batchSeq.Add(1))},
		members: make([]batchMember, len(members)),
		live:    len(members),
	}
	if err := v.write(ctx, &bs.layout, bytes.NewReader(blob)); err != nil {
		for _, p := range members {
			v.unregister(p.id)
		}
		return err
	}
	for i, p := range members {
		bs.members[i] = batchMember{
			id:     p.id,
			off:    offs[i],
			n:      len(p.data),
			digest: sha256.Sum256(p.data),
		}
		obj := objs[i]
		obj.layout = layout{plainLen: len(p.data), chain: bs.chain}
		obj.batch = bs
		obj.batchIndex = i
		obj.live.Store(true)
		v.cacheInvalidate(p.id) // defensive, as in PutReader
	}
	v.obsm.batchFlushes.Inc()
	return nil
}

// releaseBatchMember is the Delete body for a batch member: the member is
// only marked released — its bytes stay in the blob (no compaction) — and
// the blob's shards are dropped when the last member goes. Callers hold
// obj.mu in write mode and have already cleared liveness.
func (v *Vault) releaseBatchMember(obj *vaultObject) {
	bs := obj.batch
	bs.mu.Lock()
	defer bs.mu.Unlock()
	m := &bs.members[obj.batchIndex]
	if m.released {
		return
	}
	m.released = true
	bs.live--
	if bs.live == 0 {
		v.replaceChunks(&bs.layout, nil)
	}
}
