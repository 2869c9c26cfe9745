package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sync/atomic"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
)

// Streaming ingest and retrieval: PutReader feeds an io.Reader through
// the chunked encode→stage writer (pipeline.go), reading one chunk at a
// time, so an object of any size passes through the vault holding
// O(chunkSize) plaintext in memory — never the whole object. The
// integrity chain binds the object's SHA-256 digest, computed
// incrementally as chunks stream past (tstamp.NewFromDigest), and the
// whole multi-chunk write still commits under ONE stage token: a failure
// at any chunk aborts the stage and leaves nothing behind. Put is
// PutReader over the slice.
//
// ReadTo is the mirror: chunks decode and flow to an io.Writer as they
// arrive, each hashed once into the object's running SHA-256 and written
// only after that state matches the midstate the writer recorded after
// the chunk — the last chunk's after the chain accepts the digest. Get
// is ReadTo into a buffer the caller owns.

// streamBufAdd adjusts the in-flight plaintext byte count (read from
// the client but not yet staged on the cluster) and maintains the
// lifetime high-water mark — the memory-boundedness evidence the
// streaming tests (and the API layer's multi-GiB claim) rest on.
func (v *Vault) streamBufAdd(n int64) {
	cur := v.streamBuffered.Add(n)
	for {
		peak := v.streamPeak.Load()
		if cur <= peak || v.streamPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// StreamPeakBuffered reports the high-water mark of plaintext bytes the
// streaming writer has held in memory at once over the vault's
// lifetime. For a healthy pipeline this stays at a few chunks'
// worth (the read-ahead chunk plus pipelineDepth in-flight encodes)
// regardless of object size.
func (v *Vault) StreamPeakBuffered() int64 { return v.streamPeak.Load() }

// PutReader archives the reader's content under id without ever
// materialising it: chunks are read, encoded, and staged as a bounded
// pipeline, and the integrity chain is opened from the incrementally
// computed digest. Returns the number of plaintext bytes consumed. The
// write becomes a "vault.put" span with each chunk's encode and the
// staging attributed below it.
func (v *Vault) PutReader(ctx context.Context, id string, r io.Reader) (n int64, err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.put",
		trace.Str("object", id), trace.Str("encoding", v.Encoding.Name()))
	defer func() {
		if err == nil {
			sp.SetAttrs(trace.Int64("bytes", n))
		}
		sp.End(err)
	}()
	obj, err := v.reserve(id)
	if err != nil {
		return 0, err
	}
	defer obj.mu.Unlock()
	obj.id = id
	if err := v.write(ctx, &obj.layout, r); err != nil {
		v.unregister(id)
		return 0, err
	}
	obj.live.Store(true)
	// Defensive invalidation while the write lock is still held: a fresh
	// id cannot have an entry unless it was deleted and re-put, in which
	// case Delete already dropped it — but the hook costs one map probe
	// and keeps "every mutator invalidates" unconditional.
	v.cacheInvalidate(id)
	return int64(obj.plainLen), nil
}

// ReadTo retrieves an object into w, chunk by chunk, so retrieval is as
// memory-bounded as ingest; an object that fits a read-cache entry is
// bounded by that, so it is decoded whole, handed to the cache, then
// written. Returns the number of plaintext bytes written. Every chunk is
// checked before it is written — against its recorded midstate, the
// last one against the integrity chain — so w only ever receives checked
// bytes; an error return still invalidates the bytes already written,
// and w never received the whole object. The read becomes a "vault.get" span over the stripe
// fetches (per-node probes with typed failure events), decode, and
// verify — the breakdown a degraded read needs to explain its latency.
func (v *Vault) ReadTo(ctx context.Context, id string, w io.Writer) (n int64, err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.get", trace.Str("object", id))
	defer func() {
		if err == nil {
			v.obsm.getBytes.Observe(float64(n))
			sp.SetAttrs(trace.Int64("bytes", n))
		}
		sp.End(err)
	}()
	obj, err := v.acquire(ctx, id, false)
	if err != nil {
		return 0, err
	}
	defer obj.mu.RUnlock()
	sp.SetAttrs(trace.Str("encoding", obj.enc.Name()))
	// The epoch is captured before the cache probe AND before the stripe
	// fetch: an entry inserted below is reachable only while the cluster
	// is still in the epoch the read began in, so an AdvanceEpoch racing
	// this read can only make the insert unreachable — never stale.
	epoch := v.Cluster.Epoch()
	if v.cache != nil {
		if cached, ok := v.cacheGet(ctx, id, epoch); ok {
			return writeOut(w, id, cached)
		}
	}
	if v.cache == nil || int64(obj.plainLen) > v.cache.maxEntry {
		return v.readStripes(ctx, id, &obj.layout, w)
	}
	var sink chunkSink
	if _, err := v.readStripes(ctx, id, &obj.layout, &sink); err != nil {
		return 0, err
	}
	// Insert under the still-held read lock: any later mutation of this
	// object must take the write lock first, and its invalidate(id) then
	// runs strictly after this insert. The plaintext is private to this
	// call and only read after this, so the cache takes it as is.
	v.cache.insert(id, epoch, sink.whole)
	return writeOut(w, id, sink.whole)
}

func writeOut(w io.Writer, id string, data []byte) (int64, error) {
	n, err := w.Write(data)
	if err != nil {
		return int64(n), fmt.Errorf("core: get %s: write: %w", id, err)
	}
	return int64(n), nil
}

// chunkSink collects a read in memory: Get's caller-owned result, and
// the buffer a cache fill reads into. Write copies, as io.Writer
// requires — a cache hit writes the cache's own entry.
// readStripes instead hands it each decoded chunk, a fresh slice nothing
// else holds, and an empty sink keeps that as is: a one-chunk object is
// never copied.
type chunkSink struct{ whole []byte }

func (s *chunkSink) Write(p []byte) (int, error) {
	s.whole = append(s.whole, p...)
	return len(p), nil
}

// readStripes is the one reader: the degraded k-of-n read of l's chunk
// stripes, streaming each decoded chunk to w once it is checked; callers
// hold the lock guarding l and have checked liveness, and id names the
// object the read is for. Each chunk's fetch walks the nodes for the
// decoder's minimum, fanning out only when a probe stalls, retries
// transient faults with bounded backoff, and stops as soon as the
// minimum is in hand. The chunk is
// decoded from exactly that minimum, hashed into the object's running
// SHA-256 and written only if the hash matches what the writer recorded
// (see checkedChunk), so no byte leaves unchecked and every byte is
// hashed once. Shards the check says nothing about are vetted by the
// chunk's shard check (chunkMeta.holds): a rotted one is discarded and
// further nodes are pulled instead. A read that had to discard still
// succeeds but queues id for ScrubAll — routing around bit rot must
// trigger a repair, not hide the damage; one that cannot reach the
// minimum returns *DegradedError (errors.Is ErrDegraded) carrying
// got/want and the per-node causes. The reassembled object never needs
// to exist in memory.
func (v *Vault) readStripes(ctx context.Context, id string, l *layout, w io.Writer) (int64, error) {
	n, min := l.enc.Shards()
	sink, _ := w.(*chunkSink)
	if sink != nil && sink.whole == nil && len(l.chunks) > 1 {
		sink.whole = make([]byte, 0, l.plainLen)
	}
	// Prefetch overlaps the next window of stripe fetches with this
	// chunk's decode/digest/write; the deferred stop runs before the
	// caller releases its lock, so look-ahead goroutines never outlive the
	// layout they read (see prefetch.go).
	var pf *prefetcher
	if len(l.chunks) > 1 {
		pf = v.newPrefetcher(ctx, l, n, min)
		defer pf.stop()
	}
	h := sha256.New()
	var total int64
	for ci := range l.chunks {
		var res *cluster.StripeResult
		if pf != nil {
			res = pf.next(ci)
		} else {
			res = v.fetchChunk(ctx, l, ci, n, min)
		}
		p, err := v.checkedChunk(ctx, id, l, ci, min, res, h)
		if err != nil {
			return total, err
		}
		wn := len(p)
		if sink != nil && sink.whole == nil {
			sink.whole = p
		} else {
			wn, err = w.Write(p)
		}
		total += int64(wn)
		if err != nil {
			return total, fmt.Errorf("core: get %s chunk %d: write: %w", id, ci, err)
		}
	}
	return total, nil
}

// checkedChunk decodes chunk ci of l from its stripe read res and hashes
// it into h, which holds the object's state after the chunks before it.
// It returns the plaintext only if h then matches the midstate the
// writer recorded after the chunk — or, after the last chunk, the digest
// the chain binds. The first decode uses exactly min shards, lowest index
// first, most of them taken unhashed: a changed byte in any of them
// changes the output, and a span shard's padding, which the output does
// not hold, must be zero (decodeChunk). A chunk that fails its check or
// its decode gets one "read.mismatch" event; h is rewound, the stripe
// read resumes with every shard vetted by the chunk's shard check
// (chunkMeta.holds) and the missing ones pulled from nodes not yet tried,
// and the chunk is decoded once more. A second failure is final and
// wraps tstamp.ErrOpeningFailed.
func (v *Vault) checkedChunk(ctx context.Context, id string, l *layout, ci, min int, res *cluster.StripeResult, h hash.Hash) (p []byte, err error) {
	sp := trace.FromContext(ctx)
	defer func() {
		if d := len(res.Discarded); d > 0 {
			v.obsm.readDiscarded.Add(int64(d))
			v.markDirty(id)
			sp.Event("read.dirty", trace.Int("chunk", ci), trace.Int("discarded", d))
		}
		if res.Canceled == nil && res.Fetched >= min && res.Degraded() {
			v.obsm.readDegraded.Inc()
		}
	}()
	for vetted := false; ; vetted = true {
		if res.Canceled != nil {
			// The caller went away mid-read: this is cancellation, not a
			// degraded stripe — surface the context error so errors.Is
			// (err, context.Canceled) holds for the abandoning client.
			return nil, fmt.Errorf("core: get %s chunk %d: %w", id, ci, res.Canceled)
		}
		if res.Fetched < min {
			v.obsm.readInsufficient.Inc()
			sp.Event("read.insufficient",
				trace.Int("chunk", ci), trace.Int("got", res.Fetched), trace.Int("want", min))
			return nil, &DegradedError{Object: id, Got: res.Fetched, Want: min, Failures: res.Failures}
		}
		if p, err = v.decodeChunk(ctx, id, l, ci, min, res.Shards); err == nil {
			h.Write(p)
			err = l.check(h, ci)
			if ci == len(l.chunks)-1 && (err == nil || vetted) {
				// The chain's verdict, recorded once it stands: a miss on
				// shards taken unhashed is retried, not a chain failure.
				_, vsp := trace.Child(ctx, "vault.verify")
				vsp.End(err)
			}
			switch {
			case err == nil:
				return p, nil
			case ci == len(l.chunks)-1:
				err = fmt.Errorf("core: integrity chain rejects data for %s: %w", id, err)
			default:
				err = fmt.Errorf("core: get %s: %w", id, err)
			}
		}
		if vetted {
			return nil, err
		}
		sp.Event("read.mismatch", trace.Int("chunk", ci))
		if err := l.rewind(h, ci); err != nil {
			return nil, fmt.Errorf("core: get %s chunk %d: %w", id, ci, err)
		}
		res = v.Cluster.ResumeChunkStripeCtx(ctx, l.id, ci, min, v.retry, res, l.chunks[ci].holds)
	}
}

// errPadding is a decode refused because a span shard it would use has
// padding that is not zero.
var errPadding = fmt.Errorf("%w: a data shard's padding is not zero", ErrDecodeFailed)

// decodeChunk decodes chunk ci of l from exactly min of shards, lowest
// index first, as a "vault.decode" span. It refuses a stripe whose span
// shards' padding is not zero (errPadding).
func (v *Vault) decodeChunk(ctx context.Context, id string, l *layout, ci, min int, shards [][]byte) ([]byte, error) {
	used, k := make([][]byte, len(shards)), 0
	for i, sh := range shards {
		if sh != nil && k < min {
			used[i] = sh
			k++
		}
	}
	_, dsp := trace.Child(ctx, "vault.decode", trace.Int("chunk", ci), trace.Int("shards", k))
	start := time.Now()
	cm := &l.chunks[ci]
	var p []byte
	err := errPadding
	if cm.padded(used) {
		p, err = l.enc.Decode(cm.stripe(used))
	}
	dsp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: decode %s chunk %d: %w", id, ci, err)
	}
	observeRate(v.obsm.decodeMBs, len(p), time.Since(start))
	return p, nil
}

// fetchChunk is the k-of-n stripe fetch of l's chunk ci. The first min
// shards to arrive are taken without hashing — checkedChunk's check of
// the decoded chunk covers every shard the decode uses — and any later
// arrival, a spare, is vetted by the chunk's shard check
// (chunkMeta.holds): a span shard against the object's hash states, any
// other against its digest.
func (v *Vault) fetchChunk(ctx context.Context, l *layout, ci, n, min int) *cluster.StripeResult {
	cm := &l.chunks[ci]
	var taken atomic.Int32
	return v.Cluster.FetchChunkStripeCtx(ctx, l.id, ci, n, min, v.retry, func(i int, data []byte) bool {
		return i < len(cm.digests) && (taken.Add(1) <= int32(min) || cm.holds(i, data))
	})
}

// ObjectInfo is the client-visible metadata for one archived object —
// what the network API serves on HEAD/stat without touching the
// cluster.
type ObjectInfo struct {
	ID string
	// PlainLen is the object's plaintext length in bytes.
	PlainLen int64
	// Scheme names the encoding that wrote the stored shards.
	Scheme string
	// Chunks is the number of chunk stripes the object's bytes live in.
	Chunks int
	// Width is the stripe width of that encoding on the cluster.
	Width int
	// ChainLen is the integrity chain's link count (grows with renewals).
	ChainLen int
}

// Stat reports an object's metadata from the vault's client-side state.
func (v *Vault) Stat(id string) (*ObjectInfo, error) {
	obj, err := v.acquire(context.Background(), id, false)
	if err != nil {
		return nil, err
	}
	defer obj.mu.RUnlock()
	width, _ := obj.enc.Shards()
	return &ObjectInfo{
		ID:       id,
		PlainLen: int64(obj.plainLen),
		Scheme:   obj.enc.Name(),
		Chunks:   len(obj.chunks),
		Width:    width,
		ChainLen: obj.chain.Len(),
	}, nil
}
