package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs/trace"
	"securearchive/internal/parallel"
	"securearchive/internal/sec"
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
// metadata (Shards nil — those live on nodes), what each shard is
// checked against (holds), and, for a full chunk, the object's hash
// states around it.
type chunkMeta struct {
	enc Encoded
	// digests holds each shard's SHA-256 digest; a span shard's entry
	// stays zero, its bytes are checked against the object's hash states.
	digests [][sha256.Size]byte
	// st is nil for a chunk shorter than the vault's chunk size: only an
	// object's last chunk can be one.
	st *chunkStates
}

// chunkStates is what the writer records for a full chunk, one of at
// least the vault's chunk size. mid is the object's SHA-256 state after
// the chunk, which a read checks the decoded chunk against (the last
// chunk against the chain instead). spans, indexed by shard, places each
// shard whose bytes are a span of the chunk's plaintext — Erasure's data
// shards, every Replication replica — between two such states; it is nil
// when no shard is one.
type chunkStates struct {
	mid   midstate
	spans []span
}

// span says a shard is a stretch of the object's plaintext: its first n
// bytes take the object's hash state from from (nil: the empty state) to
// to, and its other pad bytes are zero. A span with to nil is none: that
// shard is checked by digest.
type span struct {
	from, to *midstate
	n, pad   int
}

// midstate is a running SHA-256 in crypto/sha256's binary form: the
// chaining value, the length, and the unhashed tail of the input, which
// is up to 63 plaintext bytes. It is confidential client state.
type midstate [108]byte

// save records h's state in m.
func (m *midstate) save(h hash.Hash) {
	if b, err := h.(encoding.BinaryAppender).AppendBinary(m[:0]); err != nil || len(b) != len(m) {
		panic(fmt.Sprintf("core: SHA-256 state is %d bytes, want %d (%v)", len(b), len(m), err))
	}
}

// resume puts h in state m; nil is the empty state.
func resume(h hash.Hash, m *midstate) error {
	if m == nil {
		h.Reset()
		return nil
	}
	return h.(encoding.BinaryUnmarshaler).UnmarshalBinary(m[:])
}

// mid is the object's hash state after the chunk, nil if none was
// recorded.
func (cm *chunkMeta) mid() *midstate {
	if cm.st == nil {
		return nil
	}
	return &cm.st.mid
}

// span is shard i's span, nil when the shard is checked by digest — as
// every shard is when st is nil.
func (st *chunkStates) span(i int) *span {
	if st == nil || i >= len(st.spans) || st.spans[i].to == nil {
		return nil
	}
	return &st.spans[i]
}

// isSpan reports whether shard i is a span.
func (st *chunkStates) isSpan(i int) bool { return st.span(i) != nil }

// holds reports whether data is the shard the writer stored at index i:
// a span shard when its padding is zero and resuming the state before it
// over its plaintext bytes reproduces the whole state after it, buffered
// tail included; any other shard when its digest matches. It is the one
// shard check — a read's spare vetting and resumed read, and scrub — and
// is safe for concurrent use.
func (cm *chunkMeta) holds(i int, data []byte) bool {
	if i >= len(cm.digests) {
		return false
	}
	s := cm.st.span(i)
	if s == nil {
		return sha256.Sum256(data) == cm.digests[i]
	}
	if !s.padded(data) {
		return false
	}
	h := sha256.New()
	if resume(h, s.from) != nil {
		return false
	}
	h.Write(data[:s.n])
	var got midstate
	got.save(h)
	return got == *s.to
}

// padded reports whether data has the span's length and zero padding.
func (s *span) padded(data []byte) bool {
	if len(data) != s.n+s.pad {
		return false
	}
	for _, b := range data[s.n:] {
		if b != 0 {
			return false
		}
	}
	return true
}

// padded reports whether every span shard among shards, a stripe a read
// decodes, has its length and zero padding: the decode returns no
// padding byte, so this is the read's one look at it.
func (cm *chunkMeta) padded(shards [][]byte) bool {
	for i, sh := range shards {
		if s := cm.st.span(i); s != nil && sh != nil && !s.padded(sh) {
			return false
		}
	}
	return true
}

// hashChunk writes chunk data, whose encoding produced shards, into h,
// the object's running hash, which holds state from (nil: the empty
// state). A chunk shorter than the vault's chunk size (full false) gets
// no states. A full chunk is still hashed once, with h's state saved at
// every span boundary inside it (findSpans); the state from before it
// and the mid after it bound the first and last spans, so an
// Erasure{K, N} chunk adds K−1 states and its data shards need no
// digest.
func hashChunk(h hash.Hash, data []byte, shards [][]byte, from *midstate, full bool) *chunkStates {
	if !full {
		h.Write(data)
		return nil
	}
	st := &chunkStates{}
	at := findSpans(data, shards)
	if at == nil {
		h.Write(data)
		st.mid.save(h)
		return st
	}
	cuts := make([]int, 0, 2*len(at))
	for _, a := range at {
		if a.n > 0 {
			cuts = append(cuts, a.off, a.off+a.n)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	// The boundaries strictly inside the chunk get states of their own.
	inner := cuts
	if len(inner) > 0 && inner[0] == 0 {
		inner = inner[1:]
	}
	if len(inner) > 0 && inner[len(inner)-1] == len(data) {
		inner = inner[:len(inner)-1]
	}
	states := make([]midstate, len(inner))
	hashed := 0
	for j, c := range inner {
		h.Write(data[hashed:c])
		hashed = c
		states[j].save(h)
	}
	h.Write(data[hashed:])
	st.mid.save(h)
	state := func(off int) *midstate {
		switch off {
		case 0:
			return from
		case len(data):
			return &st.mid
		}
		j, _ := slices.BinarySearch(inner, off)
		return &states[j]
	}
	st.spans = make([]span, len(shards))
	for i, a := range at {
		if a.n > 0 {
			st.spans[i] = span{from: state(a.off), to: state(a.off + a.n), n: a.n, pad: a.pad}
		}
	}
	return st
}

// spanAt places a shard in its chunk: its first n bytes are
// data[off:off+n] and its other pad bytes are zero; n 0 is no span.
type spanAt struct{ off, n, pad int }

// findSpans finds the shards whose bytes are a span of chunk data, with
// one byte comparison at most: a shard that is data's own memory at the
// offset the spans before it reached (Erasure's data shards, which
// rs.Split aliases) or at data's start (a Replication replica) is a
// span, and so is a shard that runs past data's end if it starts with
// the rest of data and is zero after it (the padded last data shard).
// It returns nil when no shard is a span.
func findSpans(data []byte, shards [][]byte) []spanAt {
	var at []spanAt
	off := 0
	for i, sh := range shards {
		rest := len(data) - off
		var a spanAt
		switch {
		case len(sh) == 0:
		case aliases(sh, data, off):
			a = spanAt{off: off, n: len(sh)}
		case aliases(sh, data, 0):
			a = spanAt{n: len(sh)}
		case rest > 0 && len(sh) > rest && bytes.Equal(sh[:rest], data[off:]):
			if s := (span{n: rest, pad: len(sh) - rest}); s.padded(sh) {
				a = spanAt{off: off, n: rest, pad: s.pad}
			}
		}
		if a.n == 0 {
			continue
		}
		if at == nil {
			at = make([]spanAt, len(shards))
		}
		at[i] = a
		off = max(off, a.off+a.n)
	}
	return at
}

// aliases reports whether sh is data's own memory from off on.
func aliases(sh, data []byte, off int) bool {
	return off < len(data) && len(sh) <= len(data)-off && &sh[0] == &data[off]
}

// newChunkMeta is the metadata of chunk stripe enc with hash states st:
// each shard that is not a span gets its digest.
func newChunkMeta(enc *Encoded, st *chunkStates) chunkMeta {
	cm := chunkMeta{enc: *enc, st: st}
	cm.digests = shardDigests(enc.Shards, st.isSpan)
	cm.enc.Shards = nil
	return cm
}

// stripe is the chunk's Encoded with shards fetched back from the nodes.
func (cm *chunkMeta) stripe(shards [][]byte) *Encoded {
	enc := cm.enc
	enc.Shards = shards
	return &enc
}

// before is the object's hash state before chunk ci: nil, the empty
// state, for chunk 0, else the state recorded after chunk ci−1.
func (l *layout) before(ci int) (*midstate, error) {
	if ci == 0 {
		return nil, nil
	}
	if m := l.chunks[ci-1].mid(); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("core: no hash state recorded after chunk %d", ci-1)
}

// rewind puts h in the object's hash state before chunk ci.
func (l *layout) rewind(h hash.Hash, ci int) error {
	m, err := l.before(ci)
	if err != nil {
		return err
	}
	return resume(h, m)
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
	m := l.chunks[ci].mid()
	var got midstate
	got.save(h)
	if m == nil || got != *m {
		return fmt.Errorf("%w: chunk %d differs from the bytes written", tstamp.ErrOpeningFailed, ci)
	}
	return nil
}

// encodedChunk is the pipeline's unit of flow from encode to stage.
type encodedChunk struct {
	idx int
	enc *Encoded
	st  *chunkStates
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

// chainMode is the reference mode of a chain opened for an object under
// enc: a hash where the nodes hold the bytes in the clear (class none),
// a commitment wherever the encoding hides them. Computational classes
// get the commitment too, because a published digest lets anyone
// confirm a guess of the plaintext, which AES under a random key does
// not.
func chainMode(enc Encoding) tstamp.RefMode {
	if enc.Class() == sec.None {
		return tstamp.RefHash
	}
	return tstamp.RefCommitment
}

// write is the one writer: r's plaintext becomes l's chunk list under
// the vault's current Encoding, which l then records, staged and
// committed as one key swap. A layout without a chain — a new object or
// blob — gets one opened over r's digest in the encoding's chainMode
// before the commit, so a chain failure still aborts cleanly. A renewal
// keeps its own, and commits only if the chain still vouches for r's
// digest; a hash chain whose object moves to a hiding encoding is first
// upgraded to a commitment chain, also before the commit. Callers hold
// the lock guarding l; on error l is unchanged and the cluster keeps
// whatever l had.
func (v *Vault) write(ctx context.Context, l *layout, r io.Reader) error {
	enc := v.Encoding
	s, err := v.stageStripes(ctx, l.id, enc, r)
	if err != nil {
		return err
	}
	chain, mode := l.chain, chainMode(enc)
	switch {
	case chain == nil:
		chain, err = tstamp.NewFromDigest(s.digest, mode, sig.Ed25519, v.Cluster.Epoch(), v.Group, v.rnd)
	case chain.Mode == tstamp.RefHash && mode == tstamp.RefCommitment:
		chain, err = chain.Upgrade(s.digest, v.Cluster.Epoch(), v.Group, v.rnd)
	default:
		err = chain.VerifyDigest(s.digest)
	}
	if err != nil && l.chain != nil {
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
// of lookahead so a sub-floor tail folds into the previous chunk,
// encodes each chunk under enc as it is emitted and hashes it once
// (hashChunk: a full chunk keeps the states its span shards are checked
// by, and the midstate after it); the consumer digests the shards that
// are no span and stages the chunk. On error the stage is already
// aborted.
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
			var probe []byte   // readChunk's probe buffer, reused per chunk
			var from *midstate // h's state before the next chunk
			idx := 0
			emitChunk := func(data []byte) (bool, error) {
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
				st := hashChunk(h, data, e.Shards, from, len(data) >= cs)
				if st != nil {
					from = &st.mid
				}
				ok := emit(encodedChunk{idx: idx, enc: e, st: st})
				idx++
				return ok, nil
			}
			for {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: read %s chunk %d: %w", id, idx, err)
				}
				buf, n, rerr := readChunk(r, cs, &probe)
				if n > 0 {
					s.n += int64(n)
					track(int64(n))
				}
				if rerr == nil {
					// A full chunk landed, so the previous one cannot be the
					// tail — emit it and hold this one back instead.
					if pending != nil {
						if ok, err := emitChunk(pending); err != nil || !ok {
							return err // !ok: consumer failed, its error wins
						}
					}
					pending = buf
					continue
				}
				if rerr != io.EOF && rerr != errShortChunk {
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
					pending = fold(pending, tail)
				default:
					if pending != nil {
						if ok, err := emitChunk(pending); err != nil || !ok {
							return err
						}
					}
					pending = tail
				}
				_, err := emitChunk(pending)
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
			s.chunks = append(s.chunks, newChunkMeta(c.enc, c.st))
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

// streamProbe is the size of the buffer a streamed put of unknown
// length reads each chunk's first bytes into. Most objects are far
// smaller than a chunk, and a zeroed chunk-sized buffer per put was most
// of a small put's allocation; after a full chunk, the next read may find
// only EOF, or a short tail. A chunk that fills the probe pays one extra
// streamProbe-byte copy.
const streamProbe = 64 << 10

// sizedSource is a source that knows how many bytes are left before its
// end: Len reports them.
type sizedSource interface{ Len() int }

// errShortChunk is readChunk's report of a stream that ended partway
// into a chunk: the bytes it returns are the last chunk. It is not
// io.ErrUnexpectedEOF, which a source may return for a stream cut off
// short of its end (net/http does for a truncated body) and which fails
// the read like any other source error.
var errShortChunk = errors.New("core: stream ends inside a chunk")

// readChunk reads the next chunk of up to cs bytes from r into a buffer
// of its own, with io.ReadFull's contract on the count and error, except
// that a stream ending partway into the chunk is errShortChunk (see
// readFull). A sizedSource — bytes.Reader (Put), the api's body of
// announced length — gets a buffer of exactly what is left when that is
// under cs, and its stream ends there. Otherwise — a streamed put of
// unknown length, or a renewal reading its own decoded chunks from a
// pipe — it reads into *probe, a streamProbe-sized buffer it allocates
// once per stream and reuses for every chunk, and moves to a cs-sized
// one only if that fills.
//
// The buffer it returns is no larger than what it holds, give or take
// one byte: the encoder's data shards alias it and the mem store keeps
// them, so a short read into a bigger buffer is copied out rather than
// pinning the whole probe or chunk buffer behind a small object. The
// probe itself is returned only with an error, which ends the stream, so
// no stored shard aliases a buffer that is read into again.
func readChunk(r io.Reader, cs int, probe *[]byte) ([]byte, int, error) {
	var buf []byte
	sized := false
	if l, ok := r.(sizedSource); ok {
		buf, sized = make([]byte, min(cs, l.Len())), true
	} else if cs > streamProbe {
		if *probe == nil {
			*probe = make([]byte, streamProbe)
		}
		buf = *probe
	} else {
		buf = make([]byte, cs)
	}
	n, err := readFull(r, buf)
	switch {
	case err != nil || len(buf) == cs:
	case sized && n == 0:
		err = io.EOF
	case sized:
		err = errShortChunk // the source's own count ends it here
	default:
		full := make([]byte, cs)
		copy(full, buf)
		var m int
		m, err = readFull(r, full[n:])
		if err == io.EOF {
			err = errShortChunk // the probe's bytes came before it
		}
		buf, n = full, n+m
	}
	if err != nil && len(buf)-n > 1 {
		short := make([]byte, n)
		copy(short, buf)
		buf = short
	}
	return buf, n, err
}

// readFull is io.ReadFull, except that a stream ending after some bytes
// but short of len(buf) is errShortChunk: io.ReadFull reports it as
// io.ErrUnexpectedEOF, which it also passes through from the source.
func readFull(r io.Reader, buf []byte) (int, error) {
	var n int
	var err error
	for n < len(buf) && err == nil {
		var m int
		m, err = r.Read(buf[n:])
		n += m
	}
	switch {
	case n == len(buf):
		return n, nil
	case err == io.EOF && n > 0:
		return n, errShortChunk
	}
	return n, err
}

// fold appends a sub-floor tail to the chunk before it, in a buffer of
// exactly their joint length: append would leave the chunk's shards
// aliasing a buffer grown by a quarter.
func fold(chunk, tail []byte) []byte {
	out := make([]byte, len(chunk)+len(tail))
	copy(out[copy(out, chunk):], tail)
	return out
}
