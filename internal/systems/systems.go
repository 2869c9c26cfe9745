// Package systems implements a miniature but end-to-end version of every
// archival system in the paper's Table 1, on the shared cluster substrate:
//
//	ArchiveSafeLT — cascade ciphers + erasure-coded dispersal
//	AONT-RS       — all-or-nothing transform + erasure-coded dispersal
//	HasDPSS       — proactively shared keys with a verifiable audit chain
//	LINCOS        — secret sharing at rest, OTP/QKD in transit,
//	                commitment-based timestamping
//	PASIS         — configurable encoding (replication / EC / sharing)
//	POTSHARDS     — plain Shamir across independent providers, no renewal
//	VSR Archive   — Shamir plus verifiable share redistribution/renewal
//	CloudAES      — the AWS/Azure/GCP baseline: AES-256 + erasure coding
//
// Every system implements the same Archive interface: Store/Retrieve
// against the cluster, a static security classification (Table 1's transit
// and at-rest columns), and — the part that makes Table 1 *measured*
// rather than asserted — a Breach method that plays the paper's adversary:
// given the mobile adversary's harvest and the cryptanalytic break clock,
// what does the attacker actually recover? Experiments E2 and E4 run on
// these implementations, and Table1 regenerates the paper's table from
// them.
//
// Four systems store one core encoding each, so their storage half is a
// core.Vault: CloudAES (core.TraditionalEncryption), AONT-RS
// (core.AONTRS), POTSHARDS (core.SecretSharing) and PASIS (one of
// Replication, Erasure, TraditionalEncryption or SecretSharing per
// instance). They read, write and renew exactly as the vault does —
// per-shard digests route reads around rotted shards, an integrity chain
// covers every object, and renewal is the vault's full re-encode. The
// vault draws its randomness from crypto/rand, so these four ignore the
// rnd that Store and Renew are given. The other four renew without ever
// reassembling plaintext — ArchiveSafeLT wraps an outer cipher layer,
// VSR and LINCOS add a sharing of zero, HasDPSS redistributes to a new
// committee — which a vault cannot express yet, so they keep the shard
// helpers below.
//
// Every write is atomic, as the vault's are: a Store, Renew, Resize or
// Repair stages the whole new stripe under one stage token unique to the
// write and commits it as one key swap, aborting on any failure. The
// client-side state a write changes (keys, layers, commitments,
// committees, ledgers, traffic meters) changes only after the commit
// lands, so a write that fails — one node down is enough — leaves the
// cluster's bytes and the object exactly as they were.
package systems

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
)

// Errors returned across systems.
var (
	ErrTooFewNodes  = errors.New("systems: cluster too small for this system")
	ErrUnknownRef   = errors.New("systems: unknown object reference")
	ErrRetrieval    = errors.New("systems: could not retrieve enough shards")
	ErrNotSupported = errors.New("systems: operation not supported by this system")
)

// Ref identifies a stored object.
type Ref struct {
	System   string
	Object   string
	PlainLen int
}

// BreachResult reports what an attacker extracted from its harvest.
type BreachResult struct {
	// Violated is true when ANY confidentiality was lost.
	Violated bool
	// Full is true when the complete plaintext was recovered.
	Full bool
	// Recovered holds recovered plaintext when Full.
	Recovered []byte
	// Reason explains the outcome for reports.
	Reason string
}

// Archive is the interface every Table 1 system implements.
type Archive interface {
	// Name returns the Table 1 row label.
	Name() string
	// Store archives data under the given object ID.
	Store(object string, data []byte, rnd io.Reader) (*Ref, error)
	// Retrieve reads an object back (exercising availability).
	Retrieve(ref *Ref) ([]byte, error)
	// Renew refreshes at-rest material where the design supports it
	// (share renewal, layer wrapping); ErrNotSupported otherwise.
	Renew(ref *Ref, rnd io.Reader) error
	// Classify returns the system's Table 1 classification. Measured
	// storage cost is filled in by the caller from cluster accounting.
	Classify() sec.Profile
	// Breach plays the adversary: given the harvest and break clock at
	// the given epoch, attempt to violate the object's confidentiality.
	Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult
}

// StorageCost measures bytes-at-rest per plaintext byte for a stored ref.
func StorageCost(c *cluster.Cluster, ref *Ref) float64 {
	if ref.PlainLen == 0 {
		return 0
	}
	return float64(c.ObjectBytes(ref.Object)) / float64(ref.PlainLen)
}

// vaulted is the storage half of the systems whose at-rest form is one
// core encoding: a vault holding their objects, one shard per node.
type vaulted struct{ v *core.Vault }

// newVaulted builds the vault for enc over c, refusing a cluster with
// fewer nodes than enc has shards.
func newVaulted(c *cluster.Cluster, enc core.Encoding) (vaulted, error) {
	if n, _ := enc.Shards(); n > c.Size() {
		return vaulted{}, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
	}
	v, err := core.NewVault(c, enc)
	return vaulted{v}, err
}

// store archives data under object for the system named system.
func (s vaulted) store(system, object string, data []byte) (*Ref, error) {
	if err := s.v.Put(context.TODO(), object, data); err != nil {
		return nil, err
	}
	return &Ref{System: system, Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive: the vault's degraded, digest-vetted read.
// A read below the decode minimum is ErrRetrieval with the vault's
// "insufficient shards: got 2, want 3 (node 2: down, …)" attribution.
func (s vaulted) Retrieve(ref *Ref) ([]byte, error) {
	data, err := s.v.Get(context.TODO(), ref.Object)
	switch {
	case errors.Is(err, core.ErrNotFound):
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	case err != nil:
		return nil, fmt.Errorf("%w: %w", ErrRetrieval, err)
	}
	return data, nil
}

// renew re-encodes the object with fresh randomness as one staged write;
// a failed renewal leaves the object as it was.
func (s vaulted) renew(ref *Ref) error {
	err := s.v.RenewShares(context.TODO(), ref.Object)
	if errors.Is(err, core.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	return err
}

// checkSharing refuses a (t, n) sharing that c has too few nodes for or
// that is no threshold scheme.
func checkSharing(c *cluster.Cluster, n, t int) error {
	if n > c.Size() {
		return fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
	}
	if t < 1 || t > n {
		return fmt.Errorf("systems: invalid threshold %d of %d", t, n)
	}
	return nil
}

// --- shared shard-placement helpers ---

// stageSeq uniquifies the stage tokens of concurrent writes.
var stageSeq atomic.Int64

// putShards writes a stripe, shard i to node i (the paper's
// one-shard-per-independent-provider placement; nil shards are skipped),
// atomically: every shard is staged under one token unique to the write,
// then the token commits, and any failure aborts it, so the live stripe
// is either wholly the old one or wholly the new. Staging is not retried:
// a transient fault fails the write.
func putShards(c *cluster.Cluster, object string, shards [][]byte) (err error) {
	if len(shards) > c.Size() {
		return fmt.Errorf("%w: %d shards for %d nodes", ErrTooFewNodes, len(shards), c.Size())
	}
	stage := fmt.Sprintf("systems:%s#%d", object, stageSeq.Add(1))
	defer func() {
		if err != nil {
			// The write's error is the one to report; an abort that fails
			// too leaves an orphaned stage, which a disk store drops at its
			// next Open.
			_, _ = c.AbortStage(stage)
		}
	}()
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		if err := c.PutStagedCtx(context.TODO(), i, stage, cluster.ShardKey{Object: object, Index: i}, sh); err != nil {
			return err
		}
	}
	_, err = c.CommitStage(stage)
	return err
}

// getShards fetches chunk stripe chunk of object in full (nil for
// unavailable shards), indexed by shard number, retrying transient faults
// per node. A best-effort read: callers that tolerate holes (robust
// decoders) take whatever arrived.
func getShards(c *cluster.Cluster, object string, chunk, total int) [][]byte {
	return c.FetchChunkStripeCtx(context.TODO(), object, chunk, total, total, cluster.DefaultRetry, nil).Shards
}

// getShardsDegraded is the k-of-n read shared by the systems outside the
// vault: fan out the decoder's minimum plus speculative probes, retry
// transients with bounded backoff, fall back to remaining providers, and
// stop once want shards are in hand. When fewer than want
// shards arrive the error reports the shortfall and the per-node causes
// ("insufficient shards: got 2, want 3 (node 4: corrupt, node 5:
// down)") — callers must not feed the partial stripe to a decoder.
// valid, when non-nil, vets each shard as it arrives; a shard that fails
// is discarded and another node tried.
func getShardsDegraded(c *cluster.Cluster, object string, total, want int, valid func(i int, data []byte) bool) ([][]byte, error) {
	res := c.FetchChunkStripeCtx(context.TODO(), object, 0, total, want, cluster.DefaultRetry, valid)
	if res.Fetched < want {
		return res.Shards, insufficientShards(res, want)
	}
	return res.Shards, nil
}

// refreshShares is the Herzberg share refresh VSR and LINCOS renew with:
// it reads all n shares of object (each vetted by valid when non-nil)
// and adds a fresh (t, n) sharing of zero, so the returned stripe holds
// the same secret on a new polynomial. It writes nothing; the caller
// commits the whole stripe with putShards.
func refreshShares(c *cluster.Cluster, object string, n, t, plainLen int, rnd io.Reader, valid func(i int, data []byte) bool) ([][]byte, error) {
	deal, err := shamir.Split(make([]byte, plainLen), n, t, rnd)
	if err != nil {
		return nil, err
	}
	shards, err := getShardsDegraded(c, object, n, n, valid)
	if err != nil {
		return nil, fmt.Errorf("systems: renewal read: %w", err)
	}
	for i, sh := range shards {
		if len(sh) != plainLen {
			return nil, fmt.Errorf("systems: renewal read: share %d is %d bytes, want %d", i, len(sh), plainLen)
		}
		for k := range sh {
			sh[k] ^= deal[i].Payload[k]
		}
	}
	return shards, nil
}

// insufficientShards wraps ErrRetrieval with got/want and per-node
// attribution from a stripe read that ended below threshold.
func insufficientShards(res *cluster.StripeResult, want int) error {
	if s := res.FailureSummary(); s != "" {
		return fmt.Errorf("%w: insufficient shards: got %d, want %d (%s)", ErrRetrieval, res.Fetched, want, s)
	}
	return fmt.Errorf("%w: insufficient shards: got %d, want %d", ErrRetrieval, res.Fetched, want)
}

// sharesOf turns a fetched Shamir stripe (shard i is the share at
// x = i+1; nil = not fetched) into at most limit shares of a threshold-t
// sharing, in node order.
func sharesOf(shards [][]byte, t, limit int) []shamir.Share {
	var out []shamir.Share
	for i, data := range shards {
		if data != nil && len(out) < limit {
			out = append(out, shamir.Share{X: byte(i + 1), Threshold: byte(t), Payload: data})
		}
	}
	return out
}

// harvestedShamir assembles shamir.Shares from the adversary's harvest of
// one object for a renewing system: only shards written in a single epoch
// combine. Returns the largest usable share set.
func harvestedShamir(adv *adversary.Mobile, object string, threshold int) []shamir.Share {
	best := []shamir.Share(nil)
	for _, byIdx := range adv.DistinctShards(object) {
		if len(byIdx) <= len(best) {
			continue
		}
		best = make([]shamir.Share, 0, len(byIdx))
		for idx, data := range byIdx {
			best = append(best, shamir.Share{X: byte(idx + 1), Threshold: byte(threshold), Payload: data})
		}
	}
	return best
}

// harvestedStripes sorts the adversary's harvest of a vault object into
// its chunk stripes: out[ci][i] is shard i of chunk ci. An object over
// one vault chunk is several stripes, and only shards of one chunk
// combine.
func harvestedStripes(adv *adversary.Mobile, object string) []map[int][]byte {
	var out []map[int][]byte
	for _, h := range adv.Harvest(object) {
		k := h.Shard.Key
		for len(out) <= k.Chunk {
			out = append(out, map[int][]byte{})
		}
		if _, ok := out[k.Chunk][k.Index]; !ok {
			out[k.Chunk][k.Index] = h.Shard.Data
		}
	}
	return out
}
