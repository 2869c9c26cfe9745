package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"securearchive/internal/obs/trace"
)

// Scrubbing: detect missing and rotted shards and rewrite the stripe
// through the same stage-then-commit path renewal uses. This promotes
// what archivectl's scrub command did against its file store into the
// library, where every Vault caller (and the fault-injection harness)
// can run it against the cluster.

// ShardDigests computes per-shard SHA-256 digests (zero digest for nil
// shards) — the client-side health reference the vault keeps per object.
// A shard that is the same memory as the one before it, as Replication's
// replicas are, is hashed once.
func ShardDigests(shards [][]byte) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(shards))
	for i, sh := range shards {
		switch {
		case sh == nil:
		case i > 0 && sameBytes(sh, shards[i-1]):
			out[i] = out[i-1] // a replica aliasing its predecessor
		default:
			out[i] = sha256.Sum256(sh)
		}
	}
	return out
}

// sameBytes reports whether a and b are the same memory: same first byte
// and same length.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// CheckShards classifies a fetched stripe against expected digests:
// healthy (present and matching), missing (nil), corrupt (present but
// mismatching). Indices beyond the digest list count as healthy when
// present.
func CheckShards(shards [][]byte, digests [][sha256.Size]byte) (healthy, missing, corrupt []int) {
	for i, sh := range shards {
		switch {
		case sh == nil:
			missing = append(missing, i)
		case i < len(digests) && sha256.Sum256(sh) != digests[i]:
			corrupt = append(corrupt, i)
		default:
			healthy = append(healthy, i)
		}
	}
	return healthy, missing, corrupt
}

// ScrubReport describes one object's stripe health after a scrub pass.
type ScrubReport struct {
	Object string
	// Healthy, Missing and Corrupt partition the stripe's node indices
	// as found before any repair.
	Healthy []int
	Missing []int
	Corrupt []int
	// Repaired is true when the stripe was rewritten back to full
	// health through the atomic write path.
	Repaired bool
}

// Clean reports whether the stripe needed no repair.
func (r *ScrubReport) Clean() bool { return len(r.Missing) == 0 && len(r.Corrupt) == 0 }

// Scrub audits one object's stripes: it fetches every shard (retrying
// transient faults), classifies each against the object's digests, and —
// when damage is found — decodes from the healthy shards, verifies the
// plaintext against the integrity chain, re-encodes the damaged chunks
// with fresh randomness and rewrites them through stage-then-commit, as
// Put and RenewShares write. The report describes
// the stripe as found; an error means the damage exceeded the encoding's
// redundancy (or a node needed for the rewrite is down), in which case
// the cluster is left exactly as it was. The audit fetch, the repair
// decode/verify, and the staged rewrite nest under one "vault.scrub"
// span, with a "scrub.repaired" event when the stripe was rewritten. The
// scrub holds only the object's write lock, so scrubs and traffic on
// other objects proceed concurrently.
func (v *Vault) Scrub(ctx context.Context, id string) (rep *ScrubReport, err error) {
	ctx, sp := v.tracer.Start(ctx, "vault.scrub", trace.Str("object", id))
	defer func() { sp.End(err) }()
	obj, err := v.acquire(ctx, id, true)
	if err != nil {
		return nil, err
	}
	defer obj.mu.Unlock()
	return v.scrubStripes(ctx, id, &obj.layout)
}

// ScrubAll scrubs every object (in id order), each rooted in (or joined
// to) its own "vault.scrub" trace, returning one report per object and
// the joined errors of the failures. The sweep holds the vault's sweep
// lock (serialising concurrent sweeps against each other) and takes each
// object's lock in turn — never more than one at a time, so per-object
// traffic interleaves with the sweep. Objects deleted after the sweep
// snapshot are skipped silently.
func (v *Vault) ScrubAll(ctx context.Context) ([]*ScrubReport, error) {
	v.sweepMu.Lock()
	defer v.sweepMu.Unlock()
	ids := v.Objects()
	sort.Strings(ids)
	var reports []*ScrubReport
	var errs []error
	for _, id := range ids {
		rep, err := v.Scrub(ctx, id)
		if errors.Is(err, ErrNotFound) {
			continue // deleted since the snapshot
		}
		if rep != nil {
			reports = append(reports, rep)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return reports, errors.Join(errs...)
}

// verifyRecovered is the evidence-path check a scrub runs before it
// re-encodes recovered plaintext over the damaged chunks (plain[ci] set):
// each chunk must hash, from the midstate before it, to the state the
// writer recorded after it — the last one to the digest the chain binds —
// AND the chain's reference must still hold (tstamp.Chain.VerifyOpening:
// a commitment must still open — the full exponentiation reads skip — and
// a hash must still be what link 0 signed). A repair rewrites the only
// copies, so it never rests on the read memo.
func verifyRecovered(l *layout, plain [][]byte) error {
	h := sha256.New()
	for ci, p := range plain {
		if p == nil {
			continue
		}
		if err := l.rewind(h, ci); err != nil {
			return err
		}
		h.Write(p)
		if err := l.check(h, ci); err != nil {
			return err
		}
	}
	return l.chain.VerifyOpening()
}

// scrubStripes is the one scrub: it audits l chunk by chunk, id naming
// the object it runs for; callers hold the lock guarding l (write side)
// and have checked liveness. The report aggregates per-node health
// across chunks (a node is Corrupt if any of its chunk shards rotted,
// Missing if any is absent, Healthy otherwise). A repair decodes only the
// damaged chunks from their healthy shards, checks them and the
// commitment (verifyRecovered), then re-encodes them under the layout's
// own encoding — whatever the vault's Encoding is now — and stages them
// under one token, so it commits atomically.
func (v *Vault) scrubStripes(ctx context.Context, id string, l *layout) (*ScrubReport, error) {
	n, _ := l.enc.Shards()
	rep := &ScrubReport{Object: id}
	nodeMissing := make([]bool, n)
	nodeCorrupt := make([]bool, n)
	stripes := make([][][]byte, len(l.chunks)) // damaged chunks' healthy shards
	for ci := range l.chunks {
		res := v.Cluster.FetchChunkStripeCtx(ctx, l.id, ci, n, n, v.retry, nil)
		if res.Canceled != nil {
			return rep, fmt.Errorf("core: scrub %s chunk %d: %w", id, ci, res.Canceled)
		}
		_, missing, corrupt := CheckShards(res.Shards, l.chunks[ci].digests)
		for _, i := range missing {
			nodeMissing[i] = true
		}
		for _, i := range corrupt {
			nodeCorrupt[i] = true
			res.Shards[i] = nil
		}
		if len(missing)+len(corrupt) > 0 {
			stripes[ci] = res.Shards
		}
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
		// A clean stripe clears any read-time dirty mark: whatever a
		// degraded read discarded has since healed or been rewritten.
		v.clearDirty(id)
		return rep, nil
	}
	plain := make([][]byte, len(l.chunks))
	for ci, stripe := range stripes {
		if stripe == nil {
			continue
		}
		_, dsp := trace.Child(ctx, "vault.decode", trace.Int("chunk", ci))
		p, err := l.enc.Decode(l.chunks[ci].stripe(stripe))
		dsp.End(err)
		if err != nil {
			return rep, fmt.Errorf("core: scrub %s chunk %d: decode from healthy shards: %w", id, ci, err)
		}
		plain[ci] = p
	}
	_, vsp := trace.Child(ctx, "vault.verify")
	err := verifyRecovered(l, plain)
	vsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: integrity chain rejects recovered data: %w", id, err)
	}
	sctx, ssp := trace.Child(ctx, "cluster.stage", trace.Str("object", l.id))
	s := &staged{id: l.id, token: v.newStageToken(l.id), span: ssp}
	chunks := append([]chunkMeta(nil), l.chunks...)
	for ci, p := range plain {
		if p == nil {
			continue
		}
		enc, err := l.enc.Encode(p, v.rnd)
		if err == nil {
			err = v.stageShards(sctx, s.token, l.id, ci, enc.Shards)
		}
		if err != nil {
			err = fmt.Errorf("core: scrub %s: rewrite of chunk %d rolled back: %w", id, ci, err)
			return rep, v.commit(s, err)
		}
		// The plaintext is unchanged, so is the hash state after it.
		chunks[ci] = newChunkMeta(enc, l.chunks[ci].mid)
	}
	if err := v.commit(s, nil); err != nil {
		return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
	}
	// The repair rewrote the stripe; the cached plaintext is still
	// byte-identical, but dropping it keeps the mutator rule — every
	// stripe rewrite invalidates — unconditional and easy to audit.
	v.cacheInvalidate(id)
	v.replaceChunks(l, chunks)
	rep.Repaired = true
	v.obsm.scrubRepairs.Inc()
	trace.FromContext(ctx).Event("scrub.repaired",
		trace.Int("missing", len(rep.Missing)), trace.Int("corrupt", len(rep.Corrupt)))
	v.clearDirty(id)
	return rep, nil
}
