package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/parallel"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// Pipelined chunked writes: objects larger than the vault's chunk size
// are split into fixed-size chunks, each encoded as its own stripe, with
// encoding and staging overlapped as a bounded two-stage pipeline
// (RapidRAID's shape: hide encode latency behind dispersal instead of
// encode-all-then-disperse-all). Atomicity is unchanged from the
// monolithic path — every chunk's shards stage under ONE token and the
// whole object commits as a single key swap, so a failure at any chunk
// aborts the stage and leaves no committed shards behind.

// pipelineDepth bounds in-flight encoded chunks between the encode and
// stage stages: depth 2 is enough to keep both stages busy while capping
// buffered memory at two chunks' worth of shards.
const pipelineDepth = 2

// chunkMeta is one chunk's client-side encoding state: the Encoded
// metadata (shards stripped — those live on nodes) plus per-shard
// digests for degraded reads and scrubbing.
type chunkMeta struct {
	enc     *Encoded
	digests [][sha256.Size]byte
}

// encodedChunk is the pipeline's unit of flow from encode to stage.
type encodedChunk struct {
	idx int
	enc *Encoded
}

// chunkTailFloor is the smallest tail chunk the splitter will emit: a
// remainder below it folds into the previous chunk instead (the last
// chunk then runs up to chunkSize+chunkTailFloor−1 bytes). Some
// encodings reject tiny payloads outright — entropic encryption's OTP
// key floor is 16 bytes — and a near-empty stripe wastes a full round
// of staging anyway.
const chunkTailFloor = 64

// numChunks returns how many chunks cover dataLen bytes: dataLen/chunkSize
// full chunks, plus one more only when the remainder clears the tail
// floor. The last chunk absorbs any sub-floor remainder.
func numChunks(dataLen, chunkSize int) int {
	chunks := dataLen / chunkSize
	if chunks == 0 || dataLen%chunkSize >= chunkTailFloor {
		chunks++
	}
	return chunks
}

// putChunked is the pipelined write body; the caller has already checked
// for an existing id. Registry reservation and rollback mirror put.
func (v *Vault) putChunked(ctx context.Context, id string, data []byte) error {
	st := v.stripe(id)
	chain, err := tstamp.New(data, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	if err != nil {
		return err
	}
	v.obsm.putBytes.Observe(float64(len(data)))

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

	metas, err := v.disperseChunked(ctx, id, data)
	if err != nil {
		st.mu.Lock()
		delete(st.objects, id)
		st.mu.Unlock()
		obj.mu.Unlock()
		return err
	}
	// The object-level Encoded carries only whole-object facts (scheme,
	// plaintext length, used by StorageCost and listings); per-chunk
	// secrets and digests live in chunks.
	obj.enc = &Encoded{Scheme: metas[0].enc.Scheme, PlainLen: len(data)}
	obj.chunks = metas
	obj.width = len(metas[0].digests)
	obj.chain = chain
	obj.live.Store(true)
	v.cacheInvalidate(id) // defensive, as in put
	obj.mu.Unlock()
	v.obsm.pipelinePuts.Inc()
	return nil
}

// disperseChunked encodes data chunk by chunk and stages each chunk's
// shards as soon as it is encoded, overlapping the two stages through a
// bounded pipeline; one stage token covers every chunk and commits once.
// Callers hold the object's write lock. On error the stage is aborted
// and the cluster keeps whatever encoding it had (none for a fresh Put,
// the old one for renew/scrub rewrites).
func (v *Vault) disperseChunked(ctx context.Context, id string, data []byte) ([]chunkMeta, error) {
	cs := v.chunkSize
	chunks := numChunks(len(data), cs)
	stage := v.newStageToken(id)
	pctx, psp := trace.Child(ctx, "vault.pipeline",
		trace.Str("object", id), trace.Int("chunks", chunks), trace.Int("bytes", len(data)))
	start := time.Now()
	metas := make([]chunkMeta, chunks)
	err := parallel.Pipeline(pipelineDepth,
		func(emit func(encodedChunk) bool) error {
			for i := 0; i < chunks; i++ {
				// Cancellation checkpoint between chunk encodes: a
				// disconnected client must not keep burning CPU on the
				// remaining chunks of an object nobody will commit.
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: encode %s chunk %d: %w", id, i, err)
				}
				lo := i * cs
				hi := min(lo+cs, len(data))
				if i == chunks-1 {
					hi = len(data) // the last chunk absorbs a sub-floor tail
				}
				enc, err := v.Encoding.Encode(data[lo:hi], v.rnd)
				if err != nil {
					return fmt.Errorf("core: encode %s chunk %d: %w", id, i, err)
				}
				if !emit(encodedChunk{idx: i, enc: enc}) {
					return nil // consumer failed; its error wins
				}
			}
			return nil
		},
		func(c encodedChunk) error {
			// Mirror checkpoint on the staging side: RetryTransientCtx
			// inside stageShards aborts an in-flight backoff, this stops
			// the next chunk's staging from starting at all.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: stage %s chunk %d: %w", id, c.idx, err)
			}
			if err := v.stageShards(pctx, stage, id, c.idx, c.enc.Shards); err != nil {
				return err
			}
			metas[c.idx] = chunkMeta{
				enc: &Encoded{
					Scheme:       c.enc.Scheme,
					PlainLen:     c.enc.PlainLen,
					ClientSecret: c.enc.ClientSecret,
					PublicMeta:   c.enc.PublicMeta,
				},
				digests: ShardDigests(c.enc.Shards),
			}
			v.obsm.pipelineChunks.Inc()
			return nil
		},
		nil,
	)
	if err != nil {
		v.Cluster.AbortStage(stage)
		psp.Event("stage.aborted")
		psp.End(err)
		return nil, err
	}
	n, err := v.Cluster.CommitStage(stage)
	if err != nil {
		v.Cluster.AbortStage(stage)
		psp.Event("stage.aborted")
		psp.End(err)
		return nil, fmt.Errorf("core: commit %s: %w", id, err)
	}
	observeRate(v.obsm.pipelineMBs, len(data), time.Since(start))
	psp.Event("stage.committed", trace.Int("shards", n))
	psp.End(nil)
	return metas, nil
}

// readChunked is the degraded read body for pipeline-written objects;
// callers hold obj.mu and have checked liveness. It is readChunkedTo
// (stream.go) into memory: each chunk is an independent k-of-n stripe
// read validated against its own digests, and the integrity chain
// verifies the whole exactly as it was written.
func (v *Vault) readChunked(ctx context.Context, id string, obj *vaultObject) ([]byte, error) {
	var sink chunkSink
	if len(obj.chunks) > 1 {
		sink.whole = make([]byte, 0, obj.enc.PlainLen)
	}
	if _, err := v.readChunkedTo(ctx, id, obj, &sink); err != nil {
		return nil, err
	}
	return sink.whole, nil
}

// chunkSink collects readChunkedTo's output. A decoded chunk is a fresh
// slice nothing else holds, so a single-chunk object (whole still nil at
// its one Write) keeps the decoder's output itself instead of a copy.
type chunkSink struct{ whole []byte }

func (s *chunkSink) Write(p []byte) (int, error) {
	if s.whole == nil {
		s.whole = p
	} else {
		s.whole = append(s.whole, p...)
	}
	return len(p), nil
}

// scrubChunked audits and repairs a pipeline-written object chunk by
// chunk. The report aggregates per-node health across chunks (a node is
// Corrupt if any of its chunk shards rotted, Missing if any is absent,
// Healthy otherwise); repairs re-encode only the damaged chunks and
// stage them under one token so the repair commits atomically.
func (v *Vault) scrubChunked(ctx context.Context, id string, obj *vaultObject) (*ScrubReport, error) {
	n, _ := v.Encoding.Shards()
	rep := &ScrubReport{Object: id}
	nodeMissing := make([]bool, n)
	nodeCorrupt := make([]bool, n)
	chunkData := make([][]byte, len(obj.chunks))
	var damaged []int
	whole := make([]byte, 0, obj.enc.PlainLen)
	for ci := range obj.chunks {
		cm := &obj.chunks[ci]
		res := v.Cluster.FetchChunkStripeCtx(ctx, id, ci, n, n, v.retry, nil)
		if res.Canceled != nil {
			return rep, fmt.Errorf("core: scrub %s chunk %d: %w", id, ci, res.Canceled)
		}
		shards := res.Shards
		healthy, missing, corrupt := CheckShards(shards, cm.digests)
		for _, i := range missing {
			nodeMissing[i] = true
		}
		for _, i := range corrupt {
			nodeCorrupt[i] = true
			shards[i] = nil
		}
		if len(missing)+len(corrupt) > 0 {
			damaged = append(damaged, ci)
		}
		data, err := v.Encoding.Decode(&Encoded{
			Scheme:       cm.enc.Scheme,
			PlainLen:     cm.enc.PlainLen,
			Shards:       shards,
			ClientSecret: cm.enc.ClientSecret,
			PublicMeta:   cm.enc.PublicMeta,
		})
		if err != nil {
			return rep, fmt.Errorf("core: scrub %s chunk %d: decode from %d healthy shards: %w", id, ci, len(healthy), err)
		}
		chunkData[ci] = data
		whole = append(whole, data...)
	}
	for i := 0; i < n; i++ {
		switch {
		case nodeCorrupt[i]:
			rep.Corrupt = append(rep.Corrupt, i)
		case nodeMissing[i]:
			rep.Missing = append(rep.Missing, i)
		default:
			rep.Healthy = append(rep.Healthy, i)
		}
	}
	if rep.Clean() {
		v.clearDirty(id)
		return rep, nil
	}
	// Confirm the recovered whole against the integrity chain before
	// trusting it as a repair source, then rewrite only the damaged
	// chunks — one stage token, one commit.
	_, vsp := trace.Child(ctx, "vault.verify")
	err := verifyRepairSource(obj.chain, whole)
	vsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: integrity chain rejects recovered data: %w", id, err)
	}
	stage := v.newStageToken(id)
	newMetas := make(map[int]chunkMeta, len(damaged))
	for _, ci := range damaged {
		enc, err := v.Encoding.Encode(chunkData[ci], v.rnd)
		if err != nil {
			v.Cluster.AbortStage(stage)
			return rep, fmt.Errorf("core: scrub %s: re-encode chunk %d: %w", id, ci, err)
		}
		if err := v.stageShards(ctx, stage, id, ci, enc.Shards); err != nil {
			v.Cluster.AbortStage(stage)
			return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
		}
		newMetas[ci] = chunkMeta{
			enc: &Encoded{
				Scheme:       enc.Scheme,
				PlainLen:     enc.PlainLen,
				ClientSecret: enc.ClientSecret,
				PublicMeta:   enc.PublicMeta,
			},
			digests: ShardDigests(enc.Shards),
		}
	}
	if _, err := v.Cluster.CommitStage(stage); err != nil {
		v.Cluster.AbortStage(stage)
		return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
	}
	v.cacheInvalidate(id) // stripe rewritten; see the scrubObject note
	for ci, cm := range newMetas {
		obj.chunks[ci] = cm
		// A partial rewrite can narrow only its own chunks; widen the
		// recorded width if the repair encoding grew, and clear the strays
		// its chunks no longer occupy.
		w := len(cm.digests)
		if w > obj.width {
			obj.width = w
		} else if w < obj.width {
			for i := w; i < obj.width; i++ {
				v.Cluster.Delete(i, cluster.ShardKey{Object: id, Index: i, Chunk: ci})
			}
		}
	}
	rep.Repaired = true
	v.obsm.scrubRepairs.Inc()
	trace.FromContext(ctx).Event("scrub.repaired",
		trace.Int("missing", len(rep.Missing)), trace.Int("corrupt", len(rep.Corrupt)),
		trace.Int("chunks", len(damaged)))
	v.clearDirty(id)
	return rep, nil
}
