package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
)

// PASISMode selects PASIS's per-object data encoding.
type PASISMode int

// The encodings PASIS lets its users pick from — the "no one size fits
// all" position the paper quotes.
const (
	// PASISReplication: r full copies. No confidentiality, lowest latency.
	PASISReplication PASISMode = iota
	// PASISErasure: k-of-n erasure coding. No confidentiality, low cost.
	PASISErasure
	// PASISEncryptEC: AES + erasure coding. Computational, low cost.
	PASISEncryptEC
	// PASISSecretShare: (t, n) Shamir. Information-theoretic, high cost.
	PASISSecretShare
)

// String names the mode.
func (m PASISMode) String() string {
	switch m {
	case PASISReplication:
		return "replication"
	case PASISErasure:
		return "erasure"
	case PASISEncryptEC:
		return "encrypt+ec"
	case PASISSecretShare:
		return "secret-share"
	default:
		return fmt.Sprintf("PASISMode(%d)", int(m))
	}
}

// PASIS (Ganger et al., CMU) is the configurable survivable-storage
// framework: every object is stored under whichever p-m-n threshold
// scheme its owner picks, from replication through erasure coding to
// secret sharing. Table 1 renders that flexibility as "ITS (sometimes)"
// at rest and "Low-High" cost; experiment E11 sweeps the modes to draw
// the whole band. Each mode is a core encoding in a vault: Replication,
// Erasure, TraditionalEncryption (AES-256-CTR over RS) or SecretSharing.
type PASIS struct {
	vaulted
	Mode PASISMode
	N, T int
}

// NewPASIS builds a PASIS instance fixed to one mode (one per-object
// policy; construct several for mixed workloads). The erasure-coded
// modes decode from t of n shards; replication keeps n copies.
func NewPASIS(c *cluster.Cluster, mode PASISMode, n, t int) (*PASIS, error) {
	var enc core.Encoding
	var err error
	switch mode {
	case PASISReplication:
		enc = core.Replication{N: n}
	case PASISErasure:
		_, err = rs.New(t, n-t)
		enc = core.Erasure{K: t, N: n}
	case PASISEncryptEC:
		_, err = rs.New(t, n-t)
		enc = core.TraditionalEncryption{K: t, N: n}
	case PASISSecretShare:
		err = checkSharing(c, n, t)
		enc = core.SecretSharing{T: t, N: n}
	default:
		return nil, fmt.Errorf("systems: unknown PASIS mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	v, err := newVaulted(c, enc)
	if err != nil {
		return nil, err
	}
	return &PASIS{vaulted: v, Mode: mode, N: n, T: t}, nil
}

// Name implements Archive.
func (p *PASIS) Name() string { return "PASIS" }

// Store implements Archive.
func (p *PASIS) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	return p.store(p.Name(), object, data)
}

// Renew implements Archive.
func (p *PASIS) Renew(ref *Ref, rnd io.Reader) error {
	return fmt.Errorf("%w: PASIS leaves renewal policy to the user", ErrNotSupported)
}

// Classify implements Archive: the at-rest class depends on the chosen
// mode — Table 1's "ITS (sometimes)" row, made concrete.
func (p *PASIS) Classify() sec.Profile {
	rest := sec.None
	switch p.Mode {
	case PASISEncryptEC:
		rest = sec.Computational
	case PASISSecretShare:
		rest = sec.IT
	}
	return sec.Profile{
		System:       p.Name(),
		TransitClass: sec.Computational,
		RestClass:    rest,
	}
}

// Breach implements Archive, per mode.
func (p *PASIS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	switch p.Mode {
	case PASISReplication:
		// Every replica is the plaintext: one node's chunks, in order,
		// are the whole object.
		h := adv.Harvest(ref.Object)
		if len(h) == 0 {
			return BreachResult{Reason: "no replica harvested"}
		}
		var pt []byte
		for _, st := range harvestedStripes(adv, ref.Object) {
			pt = append(pt, st[h[0].Shard.Key.Index]...)
		}
		return BreachResult{Violated: true, Full: true, Recovered: pt,
			Reason: "replication stores plaintext; one node sufficed"}
	case PASISErasure:
		have := adv.MaxAnyEpochShards(ref.Object)
		if have >= p.T {
			return BreachResult{Violated: true, Full: true,
				Reason: "erasure coding is not encryption: k shards decode publicly"}
		}
		if have >= 1 {
			return BreachResult{Violated: true, Full: false,
				Reason: "systematic erasure shards ARE plaintext fragments"}
		}
		return BreachResult{Reason: "no shards harvested"}
	case PASISEncryptEC:
		return breachCiphertext(p.vaulted, adv, ref, breaks, epoch)
	case PASISSecretShare:
		return breachStaticShares(adv, ref, p.T)
	}
	return BreachResult{Reason: "unknown mode"}
}

// ModeOverhead returns the storage overhead the mode implies, for the
// E11 sweep: replication n×, erasure n/t×, encrypt+EC n/t×, sharing n×.
func (p *PASIS) ModeOverhead() float64 {
	switch p.Mode {
	case PASISReplication, PASISSecretShare:
		return float64(p.N)
	default:
		return float64(p.N) / float64(p.T)
	}
}
