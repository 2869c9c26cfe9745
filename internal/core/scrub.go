package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"securearchive/internal/obs/trace"
	"securearchive/internal/tstamp"
)

// Scrubbing: detect missing and rotted shards and rewrite the stripe
// through the same stage-then-commit path renewal uses. This promotes
// what archivectl's scrub command did against its file store into the
// library, where every Vault caller (and the fault-injection harness)
// can run it against the cluster.

// ShardDigests computes per-shard SHA-256 digests (zero digest for nil
// shards) — the client-side health reference the vault keeps per object.
func ShardDigests(shards [][]byte) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(shards))
	for i, sh := range shards {
		if sh != nil {
			out[i] = sha256.Sum256(sh)
		}
	}
	return out
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

// Scrub audits one object's stripe: it fetches every shard (retrying
// transient faults), classifies each against the object's digests, and —
// when damage is found — decodes from the healthy shards, verifies the
// plaintext against the integrity chain, re-encodes with fresh
// randomness and rewrites the whole stripe through the same
// stage-then-commit path Put and RenewShares use. The report describes
// the stripe as found; an error means the damage exceeded the encoding's
// redundancy (or a node needed for the rewrite is down), in which case
// the cluster is left exactly as it was.
func (v *Vault) Scrub(id string) (*ScrubReport, error) {
	return v.ScrubContext(context.Background(), id)
}

// ScrubContext is Scrub rooted in (or joined to) a trace: the audit
// fetch, the repair decode/verify, and the staged rewrite nest under one
// "vault.scrub" span, with a "scrub.repaired" event when the stripe was
// rewritten. The scrub holds only the object's write lock, so scrubs and
// traffic on other objects proceed concurrently.
func (v *Vault) ScrubContext(ctx context.Context, id string) (*ScrubReport, error) {
	ctx, sp := v.tracer.Start(ctx, "vault.scrub", trace.Str("object", id))
	rep, err := v.scrub(ctx, id)
	sp.End(err)
	return rep, err
}

func (v *Vault) scrub(ctx context.Context, id string) (*ScrubReport, error) {
	obj := v.lookup(id)
	if obj == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.lockWait(trace.FromContext(ctx), obj.mu.Lock)
	defer obj.mu.Unlock()
	if !obj.live.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return v.scrubObject(ctx, id, obj)
}

// ScrubAll scrubs every object (in id order), returning one report per
// object and the joined errors of the failures.
func (v *Vault) ScrubAll() ([]*ScrubReport, error) {
	return v.ScrubAllContext(context.Background())
}

// ScrubAllContext is ScrubAll with each object's scrub rooted in (or
// joined to) its own "vault.scrub" trace. The sweep holds the vault's
// sweep lock (serialising concurrent sweeps against each other) and
// takes each object's lock in turn — never more than one at a time, so
// per-object traffic interleaves with the sweep. Objects deleted after
// the sweep snapshot are skipped silently.
func (v *Vault) ScrubAllContext(ctx context.Context) ([]*ScrubReport, error) {
	v.sweepMu.Lock()
	defer v.sweepMu.Unlock()
	ids := v.Objects()
	sort.Strings(ids)
	var reports []*ScrubReport
	var errs []error
	for _, id := range ids {
		sctx, sp := v.tracer.Start(ctx, "vault.scrub", trace.Str("object", id))
		rep, err := v.scrub(sctx, id)
		sp.End(err)
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

// verifyRepairSource is the evidence-path check every scrub runs before
// it re-encodes recovered plaintext over the damaged stripe: the data
// must match the chain's digest AND the commitment must still open
// (tstamp.Chain.VerifyOpening — the full exponentiation reads skip). A
// repair rewrites the only copies, so it never rests on the read memo.
func verifyRepairSource(chain *tstamp.Chain, data []byte) error {
	if err := chain.VerifyData(data); err != nil {
		return err
	}
	return chain.VerifyOpening()
}

// scrubObject is the scrub body; callers hold obj.mu in write mode and
// have checked liveness.
func (v *Vault) scrubObject(ctx context.Context, id string, obj *vaultObject) (*ScrubReport, error) {
	if obj.batch != nil {
		return v.scrubBatchMember(ctx, id, obj)
	}
	if len(obj.chunks) > 0 {
		return v.scrubChunked(ctx, id, obj)
	}
	n, _ := v.Encoding.Shards()
	res := v.Cluster.FetchStripeCtx(ctx, id, n, n, v.retry, nil)
	if res.Canceled != nil {
		return nil, fmt.Errorf("core: scrub %s: %w", id, res.Canceled)
	}
	shards := res.Shards
	healthy, missing, corrupt := CheckShards(shards, obj.digests)
	rep := &ScrubReport{Object: id, Healthy: healthy, Missing: missing, Corrupt: corrupt}
	if rep.Clean() {
		// A clean stripe clears any read-time dirty mark: whatever a
		// degraded read discarded has since healed or been rewritten.
		v.clearDirty(id)
		return rep, nil
	}
	// Decode from the healthy shards only, then confirm end to end
	// against the integrity chain before trusting the repair source.
	for _, i := range corrupt {
		shards[i] = nil
	}
	_, dsp := trace.Child(ctx, "vault.decode", trace.Int("shards", len(healthy)))
	data, err := v.Encoding.Decode(&Encoded{
		Scheme:       obj.enc.Scheme,
		PlainLen:     obj.enc.PlainLen,
		Shards:       shards,
		ClientSecret: obj.enc.ClientSecret,
		PublicMeta:   obj.enc.PublicMeta,
	})
	dsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: decode from %d healthy shards: %w", id, len(healthy), err)
	}
	_, vsp := trace.Child(ctx, "vault.verify")
	err = verifyRepairSource(obj.chain, data)
	vsp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: integrity chain rejects recovered data: %w", id, err)
	}
	_, esp := trace.Child(ctx, "vault.encode", trace.Int("bytes", len(data)))
	enc, err := v.Encoding.Encode(data, v.rnd)
	esp.End(err)
	if err != nil {
		return rep, fmt.Errorf("core: scrub %s: re-encode: %w", id, err)
	}
	if err := v.disperse(ctx, id, enc); err != nil {
		return rep, fmt.Errorf("core: scrub %s: rewrite rolled back: %w", id, err)
	}
	// The repair rewrote the stripe; the cached plaintext is still
	// byte-identical, but dropping it keeps the mutator rule — every
	// stripe rewrite invalidates — unconditional and easy to audit.
	v.cacheInvalidate(id)
	obj.enc.ClientSecret = enc.ClientSecret
	obj.enc.PublicMeta = enc.PublicMeta
	obj.enc.PlainLen = enc.PlainLen
	obj.digests = ShardDigests(enc.Shards)
	oldWidth := obj.width
	obj.width = len(enc.Shards)
	v.cleanupStrayShards(id, oldWidth, 1, obj.width, 1)
	rep.Repaired = true
	v.obsm.scrubRepairs.Inc()
	sp := trace.FromContext(ctx)
	sp.Event("scrub.repaired",
		trace.Int("missing", len(rep.Missing)), trace.Int("corrupt", len(rep.Corrupt)))
	v.clearDirty(id)
	return rep, nil
}
