package core

import (
	"context"
	"crypto/sha256"
	"encoding"
	"fmt"
	"hash"
	"io"
	"sync/atomic"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/parallel"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// One object layout: every object is a list of chunk stripes under its
// own cluster object id. The writer below splits its
// input into chunkSize chunks, each encoded as its own stripe, with
// encoding and staging overlapped as a bounded two-stage pipeline
// (RapidRAID's shape: hide encode latency behind dispersal instead of
// encode-all-then-disperse-all). Every chunk's shards stage under ONE
// token and the whole list commits as a single key swap, so a failure at
// any chunk aborts the stage and leaves no committed shards behind. An
// object no larger than a chunk is simply a one-chunk list.

// pipelineDepth bounds in-flight encoded chunks between the encode and
// stage stages: depth 2 is enough to keep both stages busy while capping
// buffered memory at two chunks' worth of shards.
const pipelineDepth = 2

// chunkTailFloor is the smallest tail chunk the writer will emit: a
// remainder below it folds into the previous chunk instead (the last
// chunk then runs up to chunkSize+chunkTailFloor−1 bytes). Some
// encodings reject tiny payloads outright — entropic encryption's OTP
// key floor is 16 bytes — and a near-empty stripe wastes a full round
// of staging anyway.
const chunkTailFloor = 64

// layout is the client-side state of one object's list of chunk
// stripes.
type layout struct {
	// id is the cluster object id the shards are stored under: the
	// object's own id.
	id string
	// enc is the encoding that wrote every chunk of the list: each write
	// replaces the whole list, and a scrub rewrites a chunk under enc.
	// Reads, scrubs and Stat use it, never the vault's current Encoding.
	enc    Encoding
	chunks []chunkMeta
	// plainLen is the plaintext length the chain covers.
	plainLen int
	chain    *tstamp.Chain
}

// chunkMeta is one chunk stripe's client-side state: its Encoded
// metadata (Shards nil — those live on nodes), per-shard digests, which
// reads use to vet the shards they do not take unhashed and Scrub uses
// to localise damage, and — for every chunk but the last — the object's
// SHA-256 midstate after the chunk, which a read checks the decoded
// chunk against.
type chunkMeta struct {
	enc     Encoded
	digests [][sha256.Size]byte
	mid     *midstate
}

// midstate is a running SHA-256 in crypto/sha256's binary form: the
// chaining value, the length, and the unhashed tail of the input, which
// is up to 63 plaintext bytes. It is confidential client state.
type midstate [108]byte

// saveMidstate records h's state.
func saveMidstate(h hash.Hash) *midstate {
	var m midstate
	if b, err := h.(encoding.BinaryAppender).AppendBinary(m[:0]); err != nil || len(b) != len(m) {
		panic(fmt.Sprintf("core: SHA-256 state is %d bytes, want %d (%v)", len(b), len(m), err))
	}
	return &m
}

func newChunkMeta(enc *Encoded, mid *midstate) chunkMeta {
	cm := chunkMeta{enc: *enc, digests: ShardDigests(enc.Shards), mid: mid}
	cm.enc.Shards = nil
	return cm
}

// stripe is the chunk's Encoded with shards fetched back from the nodes.
func (cm *chunkMeta) stripe(shards [][]byte) *Encoded {
	enc := cm.enc
	enc.Shards = shards
	return &enc
}

// rewind puts h in the object's hash state before chunk ci.
func (l *layout) rewind(h hash.Hash, ci int) error {
	if ci == 0 {
		h.Reset()
		return nil
	}
	m := l.chunks[ci-1].mid
	if m == nil {
		return fmt.Errorf("core: no hash state recorded after chunk %d", ci-1)
	}
	return h.(encoding.BinaryUnmarshaler).UnmarshalBinary(m[:])
}

// check reports whether h, having absorbed chunks 0..ci, holds what the
// writer hashed: the midstate recorded after chunk ci, or, after the
// last chunk, the digest the chain binds. Its errors wrap
// tstamp.ErrOpeningFailed.
func (l *layout) check(h hash.Hash, ci int) error {
	if ci == len(l.chunks)-1 {
		var digest [sha256.Size]byte
		h.Sum(digest[:0])
		return l.chain.VerifyDigest(digest)
	}
	if m := l.chunks[ci].mid; m == nil || *saveMidstate(h) != *m {
		return fmt.Errorf("%w: chunk %d differs from the bytes written", tstamp.ErrOpeningFailed, ci)
	}
	return nil
}

// encodedChunk is the pipeline's unit of flow from encode to stage.
type encodedChunk struct {
	idx int
	enc *Encoded
	mid *midstate
}

// staged is a write whose shards sit under an open stage token; commit
// finishes it.
type staged struct {
	id, token string
	chunks    []chunkMeta
	digest    [sha256.Size]byte
	n         int64
	span      trace.Span // cluster.stage, ended by commit
}

// write is the one writer: r's plaintext becomes l's chunk list under
// the vault's current Encoding, which l then records, staged and
// committed as one key swap. A layout without a chain — a new object or
// blob — gets one opened over r's digest before the commit, so a chain
// failure still aborts cleanly; a renewal keeps its own, and commits
// only if the chain still vouches for r's digest. Callers hold the lock
// guarding l; on error l is unchanged and the cluster keeps whatever l
// had.
func (v *Vault) write(ctx context.Context, l *layout, r io.Reader) error {
	enc := v.Encoding
	s, err := v.stageStripes(ctx, l.id, enc, r)
	if err != nil {
		return err
	}
	chain := l.chain
	if chain == nil {
		chain, err = tstamp.NewFromDigest(s.digest, v.IntegrityMode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	} else if err = chain.VerifyDigest(s.digest); err != nil {
		err = fmt.Errorf("core: rewrite of %s: integrity chain rejects the new plaintext: %w", l.id, err)
	}
	if err := v.commit(s, err); err != nil {
		return err
	}
	l.enc, l.chain, l.plainLen = enc, chain, int(s.n)
	v.replaceChunks(l, s.chunks)
	return nil
}

// stageStripes runs the reader-fed encode→stage pipeline under a fresh
// token for id. The producer reads chunkSize-byte chunks with one chunk
// of lookahead so a sub-floor tail folds into the previous chunk, hashes
// each chunk as it is emitted — recording the midstate after every chunk
// but the last — and encodes it under enc; the consumer stages each
// chunk. On error the stage is already aborted.
func (v *Vault) stageStripes(ctx context.Context, id string, enc Encoding, r io.Reader) (*staged, error) {
	cs := v.chunkSize
	sctx, sp := trace.Child(ctx, "cluster.stage", trace.Str("object", id))
	s := &staged{id: id, token: v.newStageToken(id), span: sp}
	h := sha256.New()

	// inFlight tracks this write's share of the vault-wide buffered-bytes
	// gauge: bytes add as they are read, subtract as their chunk stages
	// (or is dropped by a failing pipeline). The deferred release zeroes
	// whatever an error path left accounted, so the gauge never leaks.
	var inFlight atomic.Int64
	track := func(n int64) {
		inFlight.Add(n)
		v.streamBufAdd(n)
	}
	defer func() { v.streamBufAdd(-inFlight.Swap(0)) }()

	err := parallel.Pipeline(pipelineDepth,
		func(emit func(encodedChunk) bool) error {
			var pending []byte // lookahead: last full chunk, unemitted
			idx := 0
			emitChunk := func(data []byte, last bool) (bool, error) {
				// Cancellation checkpoint between chunk encodes: a
				// disconnected client must not keep burning CPU on chunks
				// nobody will commit.
				if err := ctx.Err(); err != nil {
					return false, fmt.Errorf("core: encode %s chunk %d: %w", id, idx, err)
				}
				_, esp := trace.Child(ctx, "vault.encode", trace.Int("chunk", idx), trace.Int("bytes", len(data)))
				encStart := time.Now()
				e, err := enc.Encode(data, v.rnd)
				esp.End(err)
				if err != nil {
					return false, fmt.Errorf("core: encode %s chunk %d: %w", id, idx, err)
				}
				observeRate(v.obsm.encodeMBs, len(data), time.Since(encStart))
				h.Write(data)
				c := encodedChunk{idx: idx, enc: e}
				if !last {
					c.mid = saveMidstate(h)
				}
				ok := emit(c)
				idx++
				return ok, nil
			}
			for {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: read %s chunk %d: %w", id, idx, err)
				}
				buf, n, rerr := readChunk(r, cs, s.n == 0) // probe on the first chunk only
				if n > 0 {
					s.n += int64(n)
					track(int64(n))
				}
				if rerr == nil {
					// A full chunk landed, so the previous one cannot be the
					// tail — emit it and hold this one back instead.
					if pending != nil {
						if ok, err := emitChunk(pending, false); err != nil || !ok {
							return err // !ok: consumer failed, its error wins
						}
					}
					pending = buf
					continue
				}
				if rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
					return fmt.Errorf("core: read %s chunk %d: %w", id, idx, rerr)
				}
				tail := buf[:n]
				switch {
				case n == 0:
					// Clean EOF on a chunk boundary. An empty reader still
					// encodes the empty slice so the encoding's own empty-data
					// rejection surfaces.
					if pending == nil {
						pending = tail
					}
				case pending != nil && n < chunkTailFloor:
					pending = append(pending, tail...) // fold sub-floor tail
				default:
					if pending != nil {
						if ok, err := emitChunk(pending, false); err != nil || !ok {
							return err
						}
					}
					pending = tail
				}
				_, err := emitChunk(pending, true)
				return err
			}
		},
		func(c encodedChunk) error {
			// Mirror checkpoint on the staging side: the retry loop
			// inside stageShards aborts an in-flight backoff, this stops
			// the next chunk's staging from starting at all.
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: stage %s chunk %d: %w", id, c.idx, err)
			}
			if err := v.stageShards(sctx, s.token, id, c.idx, c.enc.Shards); err != nil {
				return err
			}
			s.chunks = append(s.chunks, newChunkMeta(c.enc, c.mid))
			track(-int64(c.enc.PlainLen))
			return nil
		},
		func(c encodedChunk) { track(-int64(c.enc.PlainLen)) },
	)
	if err != nil {
		return nil, v.commit(s, err)
	}
	h.Sum(s.digest[:0])
	sp.SetAttrs(trace.Int("chunks", len(s.chunks)), trace.Int64("bytes", s.n))
	return s, nil
}

// commit finishes a staged write: with err nil it commits the token as
// one key swap; otherwise — or when the commit itself does not land (I/O
// failure, crash) — it aborts, and a crashed disk store discards the
// orphaned stage at its next Open. It returns the write's error.
func (v *Vault) commit(s *staged, err error) error {
	if err == nil {
		var n int
		if n, err = v.Cluster.CommitStage(s.token); err == nil {
			s.span.Event("stage.committed", trace.Int("shards", n))
			s.span.End(nil)
			return nil
		}
		err = fmt.Errorf("core: commit %s: %w", s.id, err)
	}
	v.Cluster.AbortStage(s.token)
	s.span.Event("stage.aborted")
	s.span.End(err)
	return err
}

// newStageToken mints a stage token unique across concurrent dispersals.
func (v *Vault) newStageToken(id string) string {
	return fmt.Sprintf("vault:%s#%d", id, v.stageSeq.Add(1))
}

// stageShards stages one chunk's shards under an open stage token,
// retrying transient faults per the vault's policy (each transient lands
// on the cluster's cluster.retry{node}). The caller owns the
// token's lifecycle: commit after every chunk is staged, abort on any
// error — that single commit is what keeps multi-chunk writes atomic.
func (v *Vault) stageShards(ctx context.Context, stage, id string, chunk int, shards [][]byte) error {
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		err := v.Cluster.PutStagedRetryCtx(ctx, i, stage, cluster.ShardKey{Object: id, Index: i, Chunk: chunk}, sh, v.retry)
		if err != nil {
			return fmt.Errorf("core: disperse %s chunk %d shard %d: %w", id, chunk, i, err)
		}
	}
	return nil
}

// replaceChunks installs a committed rewrite's chunk list in l and
// deletes every shard the old list held that the new one does not — a
// stripe a re-encode narrowed or a chunk it dropped. With nil it deletes
// everything: that is Delete. Shard removal is a metadata operation that
// always succeeds, and absent keys are no-ops.
func (v *Vault) replaceChunks(l *layout, chunks []chunkMeta) {
	for ci := range l.chunks {
		keep := 0
		if ci < len(chunks) {
			keep = len(chunks[ci].digests)
		}
		for i := keep; i < len(l.chunks[ci].digests); i++ {
			v.Cluster.Delete(i, cluster.ShardKey{Object: l.id, Index: i, Chunk: ci})
		}
	}
	l.chunks = chunks
}

// streamProbe is the size of the buffer a streamed put reads its first
// bytes into. Most objects are far smaller than a chunk, and a zeroed
// chunk-sized buffer per put was most of a small put's allocation; an
// object that fills the probe pays one extra streamProbe-byte copy.
const streamProbe = 64 << 10

// readChunk reads the next chunk of up to cs bytes from r into a buffer
// of its own, with io.ReadFull's contract on the count and error. A
// source that knows what is left (bytes.Reader: Put) gets a buffer one
// byte over it, so the read also sees EOF. Otherwise — a streamed put, or
// a renewal reading its own decoded chunks from a pipe — with probe set
// (the object's first chunk), it reads into a streamProbe-sized buffer
// first and moves to a cs-sized one only if that fills.
func readChunk(r io.Reader, cs int, probe bool) ([]byte, int, error) {
	size := cs
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(cs, l.Len()+1)
	} else if probe && cs > streamProbe {
		size = streamProbe
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	if err != nil || size == cs {
		return buf, n, err
	}
	full := make([]byte, cs)
	copy(full, buf)
	m, err := io.ReadFull(r, full[n:])
	return full, n + m, err
}
