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
// Six systems store one core encoding each, so their storage half is a
// core.Vault: CloudAES (core.TraditionalEncryption), AONT-RS
// (core.AONTRS), POTSHARDS, VSR and LINCOS (core.SecretSharing) and
// PASIS (one of Replication, Erasure, TraditionalEncryption or
// SecretSharing per instance). They read, write and renew exactly as the
// vault does: per-shard digests route reads around rotted shards, an
// integrity chain covers every object, and a renewal is the vault's
// streamed re-encode, which never holds the whole object in one buffer.
// For VSR and LINCOS that re-encode stands in for the deployed
// protocols' zero-sharing refresh: every share lands on a fresh
// polynomial, which is what defeats the mobile adversary, but each
// chunk's plaintext passes through the client on the way.
// The vault draws its randomness from crypto/rand, so these six ignore
// the rnd that Store and Renew are given. The other two renew in ways a
// vault does not express: ArchiveSafeLT wraps an outer cipher layer
// (CascadeEncryption's envelope holds a fixed layer count) and HasDPSS
// redistributes key-sized scalars to a new committee through Pedersen
// VSS. They keep the shard helper below.
//
// Every write is atomic, as the vault's are: a Store, Renew or Resize
// stages the whole new stripe under one stage token unique to the write
// and commits it as one key swap, aborting on any failure. The
// client-side state a write changes (keys, layers, digests, committees,
// ledgers, traffic meters) changes only after the commit lands, so a
// write that fails — one node down is enough — leaves the cluster's
// bytes and the object exactly as they were.
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
func newVaulted(c *cluster.Cluster, enc core.Encoding, opts ...core.VaultOption) (vaulted, error) {
	if n, _ := enc.Shards(); n > c.Size() {
		return vaulted{}, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
	}
	v, err := core.NewVault(c, enc, opts...)
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

// renew re-encodes the object's shards with fresh randomness as one
// staged write; a failed renewal leaves the object as it was.
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

// --- the shard helper of the systems outside the vault ---

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

// harvestedStripes sorts the adversary's harvest of a vault object into
// its chunk stripes: out[ci][i] is shard i of chunk ci. An object over
// one vault chunk is several stripes, and only shards of one chunk
// combine. With sameEpoch they combine only if one write epoch wrote
// them all — the shares of a system that renews — and out[ci] is the
// largest such set, the earliest harvested of equal ones.
func harvestedStripes(adv *adversary.Mobile, object string, sameEpoch bool) []map[int][]byte {
	type version struct{ chunk, epoch int }
	var order []version
	sets := map[version]map[int][]byte{}
	for _, h := range adv.Harvest(object) {
		k := h.Shard.Key
		ver := version{chunk: k.Chunk}
		if sameEpoch {
			ver.epoch = h.Shard.Epoch
		}
		if sets[ver] == nil {
			sets[ver] = map[int][]byte{}
			order = append(order, ver)
		}
		if _, ok := sets[ver][k.Index]; !ok {
			sets[ver][k.Index] = h.Shard.Data
		}
	}
	var out []map[int][]byte
	for _, ver := range order {
		for len(out) <= ver.chunk {
			out = append(out, map[int][]byte{})
		}
		if len(sets[ver]) > len(out[ver.chunk]) {
			out[ver.chunk] = sets[ver]
		}
	}
	return out
}
