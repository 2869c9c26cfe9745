package systems

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
)

// CloudAES is the commodity-cloud baseline of Table 1's last row: AES-GCM
// (AES-256 with authenticated encryption, as AWS S3, Azure Storage and
// Google Cloud all apply by default) over erasure-coded placement. The
// provider holds the keys; the tenant holds nothing. Both transit (TLS,
// modelled as the same AES family) and rest are computationally secure
// and storage cost is low — and the system is the cleanest possible prey
// for Harvest Now, Decrypt Later.
type CloudAES struct {
	Cluster *cluster.Cluster
	Code    *rs.Code
	// keys is the provider KMS: object → AES-256 key. Node compromise
	// does not reveal it; a cryptanalytic AES break is modelled as key
	// recovery from ciphertext, i.e. the oracle opens.
	keys   map[string][]byte
	nonces map[string][]byte
	ctLen  map[string]int
}

// NewCloudAES builds the baseline over a cluster with at least
// dataShards+parityShards nodes.
func NewCloudAES(c *cluster.Cluster, dataShards, parityShards int) (*CloudAES, error) {
	code, err := rs.New(dataShards, parityShards)
	if err != nil {
		return nil, err
	}
	if code.TotalShards() > c.Size() {
		return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, code.TotalShards())
	}
	return &CloudAES{
		Cluster: c,
		Code:    code,
		keys:    make(map[string][]byte),
		nonces:  make(map[string][]byte),
		ctLen:   make(map[string]int),
	}, nil
}

// Name implements Archive.
func (s *CloudAES) Name() string { return "AWS, Azure, Google Cloud" }

// Store implements Archive.
func (s *CloudAES) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rnd, nonce); err != nil {
		return nil, err
	}
	ct := gcm.Seal(nil, nonce, data, []byte(object))
	shards, err := s.Code.Encode(ct)
	if err != nil {
		return nil, err
	}
	if err := putShards(s.Cluster, object, shards); err != nil {
		return nil, err
	}
	s.keys[object] = key
	s.nonces[object] = nonce
	s.ctLen[object] = len(ct)
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive.
func (s *CloudAES) Retrieve(ref *Ref) ([]byte, error) {
	key, ok := s.keys[ref.Object]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shards, err := getShardsDegraded(s.Cluster, ref.Object, s.Code.TotalShards(), s.Code.DataShards(), nil)
	if err != nil {
		return nil, err
	}
	if err := s.Code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	ct, err := s.Code.Join(shards, s.ctLen[ref.Object])
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Open(nil, s.nonces[ref.Object], ct, []byte(ref.Object))
}

// Renew implements Archive: commodity clouds re-encrypt on demand, which
// is exactly the archive-scale I/O problem of §3.2; the mini-system
// performs it literally (decrypt, re-key, re-store).
func (s *CloudAES) Renew(ref *Ref, rnd io.Reader) error {
	data, err := s.Retrieve(ref)
	if err != nil {
		return err
	}
	_, err = s.Store(ref.Object, data, rnd)
	return err
}

// Classify implements Archive.
func (s *CloudAES) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational, // TLS
		RestClass:    sec.Computational, // AES-GCM
	}
}

// Breach implements Archive. The attacker wins fully once it holds enough
// shards to rebuild the ciphertext (the erasure code is public) AND the
// AES family has fallen (break = key recovery).
func (s *CloudAES) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	have := adv.MaxAnyEpochShards(ref.Object)
	if have < s.Code.DataShards() {
		return BreachResult{Reason: fmt.Sprintf("only %d/%d shards harvested", have, s.Code.DataShards())}
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
