package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
)

// CloudAES is the commodity-cloud baseline of Table 1's last row: AES-256,
// as AWS S3, Azure Storage and Google Cloud all apply by default, over
// erasure-coded placement — core.TraditionalEncryption, AES-256-CTR over
// Reed-Solomon, in a vault whose per-shard digests and integrity chain
// authenticate what a GCM tag would. The provider holds the keys (the
// vault's client-side state); the tenant holds nothing. Both transit
// (TLS, modelled as the same AES family) and rest are computationally
// secure and storage cost is low — and the system is the cleanest
// possible prey for Harvest Now, Decrypt Later.
type CloudAES struct{ vaulted }

// NewCloudAES builds the baseline over a cluster with at least
// dataShards+parityShards nodes.
func NewCloudAES(c *cluster.Cluster, dataShards, parityShards int) (*CloudAES, error) {
	if _, err := rs.New(dataShards, parityShards); err != nil {
		return nil, err
	}
	v, err := newVaulted(c, core.TraditionalEncryption{K: dataShards, N: dataShards + parityShards})
	if err != nil {
		return nil, err
	}
	return &CloudAES{v}, nil
}

// Name implements Archive.
func (s *CloudAES) Name() string { return "AWS, Azure, Google Cloud" }

// Store implements Archive.
func (s *CloudAES) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	return s.store(s.Name(), object, data)
}

// Renew implements Archive: commodity clouds re-encrypt on demand, which
// is exactly the archive-scale I/O problem of §3.2; the mini-system
// performs it literally (decrypt, re-key, re-store).
func (s *CloudAES) Renew(ref *Ref, _ io.Reader) error { return s.renew(ref) }

// Classify implements Archive.
func (s *CloudAES) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational, // TLS
		RestClass:    sec.Computational, // AES-256
	}
}

// Breach implements Archive.
func (s *CloudAES) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	return breachCiphertext(s.vaulted, adv, ref, breaks, epoch)
}

// breachCiphertext is the Breach of a vault holding AES ciphertext over
// erasure coding with provider-held keys (CloudAES, PASIS encrypt+ec).
// The attacker wins fully once it holds enough shards to rebuild the
// ciphertext (the erasure code is public) AND the AES family has fallen
// (break = key recovery).
func breachCiphertext(s vaulted, adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	_, k := s.v.Encoding.Shards()
	have := adv.MaxAnyEpochShards(ref.Object)
	if have < k {
		return BreachResult{Reason: fmt.Sprintf("only %d/%d shards harvested", have, k)}
	}
	if !breaks.CipherBrokenAt(cascade.AES256CTR, epoch) {
		return BreachResult{Reason: "ciphertext harvested but AES unbroken"}
	}
	// AES broken: cryptanalysis recovers the key; replay the decryption.
	pt, err := s.Retrieve(ref)
	if err != nil {
		return BreachResult{Violated: true, Reason: "key recovered; ciphertext partially lost"}
	}
	return BreachResult{Violated: true, Full: true, Recovered: pt,
		Reason: "harvested ciphertext + AES break"}
}
