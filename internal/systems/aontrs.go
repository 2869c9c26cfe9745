package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/aont"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/sec"
)

// AONTRS is Resch & Plank's dispersed storage system (Cleversafe / IBM
// Cloud Object Storage): the all-or-nothing transform blends a random key
// into the data package, which is then erasure-coded across nodes —
// core.AONTRS in a vault. Below the threshold a PPT adversary learns
// nothing and *no key management exists at all*; at or above the
// threshold the inverse is public. The paper's §3.2 caveat is implemented
// literally in Breach: once the underlying cipher or hash family breaks,
// even a single harvested shard leaks plaintext blocks.
type AONTRS struct{ vaulted }

// NewAONTRS builds the system with k-of-n dispersal.
func NewAONTRS(c *cluster.Cluster, k, n int) (*AONTRS, error) {
	if _, err := aont.NewScheme(k, n); err != nil {
		return nil, err
	}
	v, err := newVaulted(c, core.AONTRS{K: k, N: n})
	if err != nil {
		return nil, err
	}
	return &AONTRS{v}, nil
}

// Name implements Archive.
func (s *AONTRS) Name() string { return "AONT-RS" }

// Store implements Archive.
func (s *AONTRS) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	return s.store(s.Name(), object, data)
}

// Renew implements Archive: AONT-RS has no in-place refresh; renewal is a
// full re-encode (read, new blended key, rewrite) — §3.2's I/O bill.
func (s *AONTRS) Renew(ref *Ref, _ io.Reader) error { return s.renew(ref) }

// Classify implements Archive.
func (s *AONTRS) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational,
		RestClass:    sec.Computational,
	}
}

// Breach implements Archive. Threshold met → full plaintext (the inverse
// is public — no break needed). Below threshold: a break of the AES or
// hash family turns any single shard into plaintext blocks ("the attacker
// trivially knows the key", §3.2).
func (s *AONTRS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	have := adv.MaxAnyEpochShards(ref.Object)
	_, k := s.v.Encoding.Shards()
	if have >= k {
		pt, err := s.Retrieve(ref)
		if err != nil {
			return BreachResult{Violated: true, Reason: "threshold met; package partially lost"}
		}
		return BreachResult{Violated: true, Full: true, Recovered: pt,
			Reason: fmt.Sprintf("%d/%d shards harvested: public inverse applies", have, k)}
	}
	if have >= 1 && (breaks.CipherBrokenAt(cascade.AES256CTR, epoch) || breaks.HashBrokenAt(epoch)) {
		return BreachResult{Violated: true, Full: false,
			Reason: "cipher/hash break: single shard leaks plaintext blocks"}
	}
	return BreachResult{Reason: fmt.Sprintf("%d/%d shards, primitives unbroken", have, k)}
}
